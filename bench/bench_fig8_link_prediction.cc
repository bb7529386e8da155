// Fig. 8 reproduction: AUC of Jaccard link prediction on the three
// bidirectional-heavy datasets (LiveJournal, Epinions, Slashdot), comparing
// the original binary adjacency matrix against the directionality adjacency
// matrices built from each method's learned directionality function.
// Claims: quantification improves AUC, and DeepDirect's matrix is best.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/applications.h"
#include "core/models.h"
#include "data/datasets.h"
#include "graph/algorithms.h"
#include "util/random.h"
#include "util/table_printer.h"

int main() {
  deepdirect::bench::BenchSession session("fig8_link_prediction");
  using namespace deepdirect;
  const double scale = bench::BenchScale();
  auto configs = core::MethodConfigs::FastDefaults();
  configs.SetNumThreads(bench::BenchThreads());
  const std::vector<data::DatasetId> datasets{
      data::DatasetId::kLiveJournal, data::DatasetId::kEpinions,
      data::DatasetId::kSlashdot};

  std::printf("=== Fig. 8: AUC of link prediction ===\n");
  std::printf("(adjacency variants; 80%% of ties kept as G')\n\n");
  auto csv = bench::OpenResultCsv("fig8_link_prediction");
  csv.WriteRow({"dataset", "adjacency", "auc", "candidates", "positives"});

  std::vector<std::string> headers{"adjacency"};
  for (data::DatasetId id : datasets) headers.push_back(data::DatasetName(id));
  util::TablePrinter table(headers);

  // Column-major evaluation: hold each dataset's split fixed across rows.
  std::vector<std::vector<double>> cells(
      1 + core::AllMethods().size(),
      std::vector<double>(datasets.size(), 0.0));

  for (size_t d = 0; d < datasets.size(); ++d) {
    const auto net = data::MakeDataset(datasets[d], scale);
    const double holdout_fraction = 0.2;
    core::LinkPredictionConfig link_config;
    link_config.seed = 97;
    util::Rng rng(link_config.seed);
    const auto holdout = graph::HoldOutTies(net, holdout_fraction, rng);

    const auto original =
        core::RunLinkPrediction(holdout, nullptr, link_config);
    cells[0][d] = original.auc;
    session.Add("auc", "fraction", "higher", original.auc,
                {{"dataset", data::DatasetName(datasets[d])},
                 {"adjacency", "Original"}});
    csv.WriteRow({data::DatasetName(datasets[d]), "Original",
                  util::TablePrinter::FormatDouble(original.auc, 4),
                  std::to_string(original.num_candidates),
                  std::to_string(original.num_positives)});

    size_t row = 1;
    for (core::Method method : core::AllMethods()) {
      const auto model = core::TrainMethod(holdout.network, method, configs);
      const auto result =
          core::RunLinkPrediction(holdout, model.get(), link_config);
      cells[row][d] = result.auc;
      session.Add("auc", "fraction", "higher", result.auc,
                  {{"dataset", data::DatasetName(datasets[d])},
                   {"adjacency", core::MethodName(method)}});
      csv.WriteRow({data::DatasetName(datasets[d]), core::MethodName(method),
                    util::TablePrinter::FormatDouble(result.auc, 4),
                    std::to_string(result.num_candidates),
                    std::to_string(result.num_positives)});
      ++row;
    }
  }

  table.AddNumericRow("Original", cells[0]);
  size_t row = 1;
  for (core::Method method : core::AllMethods()) {
    table.AddNumericRow(core::MethodName(method), cells[row]);
    ++row;
  }
  table.Print();
  return session.Finish(0);
}

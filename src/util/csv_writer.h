// CSV emission for figure-reproduction benches. Each bench prints a table to
// stdout and mirrors it to a CSV under bench_results/ for plotting.

#ifndef DEEPDIRECT_UTIL_CSV_WRITER_H_
#define DEEPDIRECT_UTIL_CSV_WRITER_H_

#include <fstream>
#include <string>
#include <vector>

#include "util/status.h"

namespace deepdirect::util {

/// Streams rows of a CSV file. Fields containing separators or quotes are
/// quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncating). Check ok() before use.
  explicit CsvWriter(const std::string& path);

  /// Whether the underlying file opened successfully.
  bool ok() const { return out_.good(); }

  /// Writes one row. Values are escaped as needed.
  void WriteRow(const std::vector<std::string>& fields);

  /// Convenience: writes a row of doubles with the given precision.
  void WriteNumericRow(const std::string& label,
                       const std::vector<double>& values, int precision = 6);

  /// Flushes and closes. Called by the destructor as well.
  void Close();

 private:
  static std::string Escape(const std::string& field);

  std::ofstream out_;
};

}  // namespace deepdirect::util

#endif  // DEEPDIRECT_UTIL_CSV_WRITER_H_

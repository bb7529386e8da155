#include "util/csv_writer.h"

#include <sstream>

namespace deepdirect::util {

CsvWriter::CsvWriter(const std::string& path) : out_(path, std::ios::trunc) {}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << Escape(fields[i]);
  }
  out_ << '\n';
}

void CsvWriter::WriteNumericRow(const std::string& label,
                                const std::vector<double>& values,
                                int precision) {
  std::vector<std::string> fields;
  fields.reserve(values.size() + 1);
  fields.push_back(label);
  for (double v : values) {
    std::ostringstream os;
    os.precision(precision);
    os << v;
    fields.push_back(os.str());
  }
  WriteRow(fields);
}

void CsvWriter::Close() {
  if (out_.is_open()) out_.close();
}

std::string CsvWriter::Escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string escaped = "\"";
  for (char c : field) {
    if (c == '"') escaped += '"';
    escaped += c;
  }
  escaped += '"';
  return escaped;
}

}  // namespace deepdirect::util

#include "common/csv.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace nextgov {

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : path_(path), out_(path), columns_(header.size()) {
  if (!out_) throw IoError("cannot open CSV file for writing: " + path);
  require(!header.empty(), "CSV header must have at least one column");
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape(header[i]);
  }
  out_ << '\n';
}

void CsvWriter::row(std::initializer_list<double> values) {
  NEXTGOV_ASSERT(values.size() == columns_);
  bool first = true;
  char buf[32];
  for (double v : values) {
    if (!first) out_ << ',';
    std::snprintf(buf, sizeof buf, "%.6g", v);
    out_ << buf;
    first = false;
  }
  out_ << '\n';
}

void CsvWriter::row_strings(const std::vector<std::string>& cells) {
  NEXTGOV_ASSERT(cells.size() == columns_);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

void CsvWriter::close() {
  out_.close();
  if (!out_) throw IoError("short write to CSV file: " + path_);
}

std::string CsvWriter::escape(std::string_view cell) {
  const bool needs_quote = cell.find_first_of(",\"\n") != std::string_view::npos;
  if (!needs_quote) return std::string{cell};
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace nextgov

// csv.hpp - minimal CSV writer for experiment series.
//
// Every figure bench dumps its series as CSV next to the printed table so
// the plots can be regenerated (e.g. with gnuplot/matplotlib) without
// re-running the simulation. Quoting follows RFC 4180 for the few string
// columns we emit (app and governor names).
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace nextgov {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. Throws IoError on
  /// failure to open.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  /// Appends a row of doubles (formatted with 6 significant digits).
  void row(std::initializer_list<double> values);
  /// Appends a mixed row of preformatted cells (quoted as needed).
  void row_strings(const std::vector<std::string>& cells);

  /// Flushes and closes the file. Throws IoError naming the path when any
  /// write did not reach it (a full disk, /dev/full): without this call a
  /// short write goes unnoticed.
  void close();

  /// Formats one cell, quoting per RFC 4180 when it contains , " or newline.
  [[nodiscard]] static std::string escape(std::string_view cell);

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t columns_;
};

}  // namespace nextgov

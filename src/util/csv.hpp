// Minimal CSV reader/writer (RFC 4180 quoting) for dataset I/O and result
// export. No external dependencies; fields are kept as strings with typed
// accessors on top.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace qlec {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// Parses a full CSV document. Handles quoted fields, embedded commas,
/// escaped quotes ("") and both \n and \r\n line endings. Empty trailing
/// line is ignored.
std::vector<CsvRow> parse_csv(std::string_view text);

/// Parses one line that is known to contain no embedded newlines.
CsvRow parse_csv_line(std::string_view line);

/// Serializes one row, quoting any field containing a comma, quote, or
/// newline.
std::string format_csv_row(const CsvRow& row);

/// Reads an entire file; std::nullopt if it cannot be opened.
std::optional<std::string> read_text_file(const std::string& path);

/// Writes text to a file, returns false on failure.
bool write_text_file(const std::string& path, std::string_view text);

/// Incremental CSV writer over any ostream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void write_row(const CsvRow& row);

 private:
  std::ostream& out_;
};

}  // namespace qlec

#include "util/csv.hpp"

#include <fstream>
#include <sstream>

namespace qlec {

std::vector<CsvRow> parse_csv(std::string_view text) {
  std::vector<CsvRow> rows;
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;

  const auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
  };
  const auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
    row_has_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        end_field();
        row_has_content = true;
        break;
      case '\r':
        break;  // swallow; \n terminates the row
      case '\n':
        end_row();
        break;
      default:
        field.push_back(c);
        row_has_content = true;
        break;
    }
  }
  if (row_has_content || !field.empty() || !row.empty()) end_row();
  return rows;
}

std::string format_csv_row(const CsvRow& row) {
  std::string out;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i) out.push_back(',');
    const std::string& f = row[i];
    const bool needs_quotes =
        f.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes) {
      out += f;
      continue;
    }
    out.push_back('"');
    for (const char c : f) {
      if (c == '"') out.push_back('"');
      out.push_back(c);
    }
    out.push_back('"');
  }
  return out;
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool write_text_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

void CsvWriter::write_row(const CsvRow& row) {
  out_ << format_csv_row(row) << '\n';
}

}  // namespace qlec

#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/check.h"

namespace kvec {
namespace {

std::string CsvEscape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string escaped = "\"";
  for (char c : field) {
    if (c == '"') escaped += '"';
    escaped += c;
  }
  escaped += '"';
  return escaped;
}

// Parses one CSV line into fields; handles quoted fields.
std::vector<std::string> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(current);
  return fields;
}

// Display width of a UTF-8 cell: its code points (every byte that is not
// a continuation byte 10xxxxxx starts one), so "µs" pads like "us".
size_t CodePoints(const std::string& text) {
  size_t count = 0;
  for (char c : text) {
    if ((static_cast<unsigned char>(c) & 0xC0) != 0x80) ++count;
  }
  return count;
}

}  // namespace

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  KVEC_CHECK(!columns_.empty());
}

void Table::AddRow(std::vector<std::string> row) {
  KVEC_CHECK_EQ(row.size(), columns_.size())
      << "row width does not match header width";
  rows_.push_back(std::move(row));
}

std::string Table::FormatDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string Table::ToText() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    widths[i] = CodePoints(columns_[i]);
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], CodePoints(row[i]));
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << (i == 0 ? "| " : " | ");
      out << row[i] << std::string(widths[i] - CodePoints(row[i]), ' ');
    }
    out << " |\n";
  };
  emit_row(columns_);
  out << "|";
  for (size_t width : widths) out << std::string(width + 2, '-') << "|";
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string Table::ToCsv() const {
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ",";
      out << CsvEscape(row[i]);
    }
    out << "\n";
  };
  emit_row(columns_);
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

bool Table::FromCsv(const std::string& csv, Table* table) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line)) return false;
  Table parsed(ParseCsvLine(line));
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = ParseCsvLine(line);
    if (fields.size() != parsed.columns().size()) return false;
    parsed.AddRow(std::move(fields));
  }
  *table = std::move(parsed);
  return true;
}

}  // namespace kvec

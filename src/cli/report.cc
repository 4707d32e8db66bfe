#include "cli/report.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "util/check.h"
#include "util/table.h"

namespace kvec {
namespace cli {
namespace {

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// JSON has no NaN/Infinity tokens; a diverged metric must not make the
// whole document unparsable.
std::string JsonNumber(double value, int precision) {
  return std::isfinite(value) ? Table::FormatDouble(value, precision)
                              : "null";
}

std::string Join(const std::vector<std::string>& values) {
  std::string out;
  for (const std::string& value : values) {
    out += (out.empty() ? "" : ", ") + value;
  }
  return out;
}

// Appends `count` members or elements, each written by `each`, between
// `open` and `close`: one per line, indented two spaces past `depth`.
template <typename Each>
void AppendContainer(char open, char close, size_t count, int depth,
                     std::string* out, const Each& each) {
  *out += open;
  for (size_t i = 0; i < count; ++i) {
    *out += i == 0 ? "\n" : ",\n";
    out->append(2 * (depth + 1), ' ');
    each(i);
  }
  if (count > 0) {
    *out += "\n";
    out->append(2 * depth, ' ');
  }
  *out += close;
}

}  // namespace

// A report flattened for the table form: (label, cell) rows, the arrays
// of objects that become sections, and the multi-line strings.
struct Report::Flat {
  std::vector<std::pair<std::string, std::string>> rows;
  std::vector<std::pair<std::string, const Field*>> sections;
  std::vector<std::pair<std::string, std::string>> blocks;
};

Report::Field& Report::Add(Kind kind, std::string key) {
  fields_.emplace_back();
  fields_.back().kind = kind;
  fields_.back().key = std::move(key);
  return fields_.back();
}

Report& Report::Value(std::string key, std::string json, std::string text) {
  Field& field = Add(Kind::kValue, std::move(key));
  field.json.push_back(std::move(json));
  field.text = std::move(text);
  return *this;
}

Report& Report::Int(std::string key, int64_t value) {
  return Value(std::move(key), std::to_string(value), std::to_string(value));
}

Report& Report::Double(std::string key, double value, int precision) {
  return Value(std::move(key), JsonNumber(value, precision),
               Table::FormatDouble(value, precision));
}

Report& Report::String(std::string key, const std::string& value) {
  return Value(std::move(key), Quote(value), value);
}

Report& Report::Bool(std::string key, bool value) {
  return Value(std::move(key), value ? "true" : "false",
               value ? "true" : "false");
}

Report& Report::Ints(std::string key, const std::vector<int64_t>& values) {
  Field& field = Add(Kind::kValues, std::move(key));
  for (int64_t value : values) field.json.push_back(std::to_string(value));
  field.text = Join(field.json);
  return *this;
}

Report& Report::Doubles(std::string key, const std::vector<double>& values,
                        int precision) {
  Field& field = Add(Kind::kValues, std::move(key));
  for (double value : values) {
    field.json.push_back(JsonNumber(value, precision));
  }
  field.text = Join(field.json);
  return *this;
}

Report& Report::Object(std::string key, Report value) {
  Add(Kind::kObject, std::move(key)).children.push_back(std::move(value));
  return *this;
}

Report& Report::Objects(std::string key, std::vector<Report> elements,
                        std::string element) {
  Field& field = Add(Kind::kObjects, std::move(key));
  field.children = std::move(elements);
  field.text = std::move(element);
  return *this;
}

Report& Report::Breakdown(std::string title, std::vector<Report> elements,
                          std::string element) {
  Objects(std::move(title), std::move(elements), std::move(element));
  fields_.back().kind = Kind::kBreakdown;
  return *this;
}

// ---- JSON ------------------------------------------------------------------

void Report::AppendJson(int depth, std::string* out) const {
  std::vector<const Field*> shown;
  for (const Field& field : fields_) {
    if (field.kind != Kind::kBreakdown) shown.push_back(&field);
  }
  AppendContainer('{', '}', shown.size(), depth, out, [&](size_t i) {
    const Field& field = *shown[i];
    *out += Quote(field.key) + ": ";
    if (field.kind == Kind::kValue) {
      *out += field.json.front();
    } else if (field.kind == Kind::kValues) {
      AppendContainer('[', ']', field.json.size(), depth + 1, out,
                      [&](size_t j) { *out += field.json[j]; });
    } else if (field.kind == Kind::kObject) {
      field.children.front().AppendJson(depth + 1, out);
    } else {
      AppendContainer('[', ']', field.children.size(), depth + 1, out,
                      [&](size_t j) {
                        field.children[j].AppendJson(depth + 2, out);
                      });
    }
  });
}

std::string Report::ToJson() const {
  std::string out;
  AppendJson(0, &out);
  return out + "\n";
}

// ---- Tables ----------------------------------------------------------------

void Report::Flatten(const std::string& prefix, Flat* flat) const {
  for (const Field& field : fields_) {
    const std::string label = prefix + field.key;
    if (field.kind == Kind::kObject) {
      field.children.front().Flatten(label + ".", flat);
    } else if (field.kind == Kind::kObjects ||
               field.kind == Kind::kBreakdown) {
      flat->sections.emplace_back(label, &field);
    } else if (field.text.find('\n') != std::string::npos) {
      flat->blocks.emplace_back(label, field.text);
    } else {
      flat->rows.emplace_back(label, field.text);
    }
  }
}

std::string Report::ToText() const {
  Flat flat;
  Flatten("", &flat);
  std::string out;
  if (!flat.rows.empty()) {
    Table table({"stat", "value"});
    for (auto& [label, cell] : flat.rows) table.AddRow({label, cell});
    out += table.ToText();
  }
  for (const auto& [title, field] : flat.sections) {
    if (!out.empty()) out += "\n";
    out += title + ":\n";
    const std::vector<Report>& elements = field->children;
    if (elements.empty()) continue;
    std::vector<Flat> flats(elements.size());
    for (size_t i = 0; i < elements.size(); ++i) {
      elements[i].Flatten("", &flats[i]);
      KVEC_CHECK(flats[i].sections.empty() && flats[i].blocks.empty())
          << "an element of '" << title << "' nests a section";
      KVEC_CHECK_EQ(flats[i].rows.size(), flats[0].rows.size());
      for (size_t r = 0; r < flats[i].rows.size(); ++r) {
        KVEC_CHECK(flats[i].rows[r].first == flats[0].rows[r].first)
            << "the elements of '" << title << "' differ in their fields";
      }
    }
    const auto& labels = flats[0].rows;
    std::vector<std::string> columns;
    if (labels.size() <= kMaxColumns) {
      // One row per element, headed by its index.
      columns.push_back(field->text);
      for (const auto& label : labels) columns.push_back(label.first);
      Table table(std::move(columns));
      for (size_t i = 0; i < flats.size(); ++i) {
        std::vector<std::string> row = {std::to_string(i)};
        for (const auto& cell : flats[i].rows) row.push_back(cell.second);
        table.AddRow(std::move(row));
      }
      out += table.ToText();
      continue;
    }
    // One column per element, one row per field.
    columns.push_back("stat");
    for (size_t i = 0; i < flats.size(); ++i) {
      columns.push_back(field->text + " " + std::to_string(i));
    }
    Table table(std::move(columns));
    for (size_t r = 0; r < labels.size(); ++r) {
      std::vector<std::string> row = {labels[r].first};
      for (const Flat& element : flats) row.push_back(element.rows[r].second);
      table.AddRow(std::move(row));
    }
    out += table.ToText();
  }
  for (const auto& [label, text] : flat.blocks) {
    if (!out.empty()) out += "\n";
    out += label + ":\n" + text;
    if (text.back() != '\n') out += "\n";
  }
  return out;
}

}  // namespace cli
}  // namespace kvec

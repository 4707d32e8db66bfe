// The result of one `kvec` subcommand, built once and rendered as JSON or
// as text tables.
//
// A subcommand walks its result exactly once, adding every field with its
// key, its value and, for doubles, its precision. Both renderers read
// that one tree, so a field cannot be in one form and missing from the
// other, and its table label is its JSON key:
//   * ToJson() writes the fields in insertion order, two-space indented,
//     doubles with their fixed precision (non-finite ones as null), so
//     the same run gives the same bytes; tests/cli_test.cc pins `kvec
//     eval --json` against a committed golden file.
//   * ToText() puts every scalar into one `stat | value` table. A field
//     of a nested object gets a dotted label ("overload.items_shed"), and
//     an array of scalars is one row of values joined by ", ". An array
//     of objects is a section of its own, titled by its key: one row per
//     element, or one column per element when an element has more than
//     kMaxColumns fields. A multi-line string (eval's classification
//     report) follows the tables verbatim under its key.
// Listings (`generate --list`, `figure --list`) and the figure tables are
// not results and keep their own tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace kvec {
namespace cli {

class Report {
 public:
  // An element with more fields than this renders as a column.
  static constexpr size_t kMaxColumns = 8;

  Report& Int(std::string key, int64_t value);
  Report& Double(std::string key, double value, int precision = 6);
  Report& String(std::string key, const std::string& value);
  Report& Bool(std::string key, bool value);
  Report& Ints(std::string key, const std::vector<int64_t>& values);
  Report& Doubles(std::string key, const std::vector<double>& values,
                  int precision = 6);
  Report& Object(std::string key, Report value);
  // An array of objects. `element` names one element in the table form:
  // the index column ("epoch"), or the column headings ("stage 0").
  Report& Objects(std::string key, std::vector<Report> elements,
                  std::string element);
  // A section that only the table form shows, titled `title`: serve's
  // per-shard breakdown after SIGINT, which the pinned JSON schema lacks.
  Report& Breakdown(std::string title, std::vector<Report> elements,
                    std::string element);

  std::string ToJson() const;
  std::string ToText() const;
  std::string Render(bool json) const { return json ? ToJson() : ToText(); }

 private:
  enum class Kind { kValue, kValues, kObject, kObjects, kBreakdown };
  struct Field {
    Kind kind = Kind::kValue;
    std::string key;
    // kValue: one JSON token; kValues: one per array element.
    std::vector<std::string> json;
    // The table cell of a kValue or kValues; the element name of a
    // kObjects or kBreakdown.
    std::string text;
    // kObject: one child; kObjects and kBreakdown: the elements.
    std::vector<Report> children;
  };
  struct Flat;

  Report& Value(std::string key, std::string json, std::string text);
  Field& Add(Kind kind, std::string key);
  void AppendJson(int depth, std::string* out) const;
  void Flatten(const std::string& prefix, Flat* flat) const;

  std::vector<Field> fields_;
};

}  // namespace cli
}  // namespace kvec

// Minimal deterministic JSON emission for the `kvec` CLI.
//
// Every machine-readable output of the driver (metrics, sweep tables,
// serving stats) goes through this writer: keys are emitted in call order,
// doubles with a fixed precision, so the same run produces byte-identical
// JSON — which is what lets tests/cli_test.cc pin `kvec eval --json`
// against a committed golden file. Serialisation only; there is
// deliberately no parser (the CLI never consumes JSON).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace kvec {
namespace cli {

class JsonWriter {
 public:
  // Containers. Begin* at the top level or inside an array; Key(...) first
  // inside an object.
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Object member name; must be followed by exactly one value or container.
  JsonWriter& Key(const std::string& name);

  // Scalars. Non-finite doubles (a diverged loss) emit null — JSON has no
  // NaN/Infinity tokens and the document must stay parsable.
  JsonWriter& String(const std::string& value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Double(double value, int precision = 6);
  JsonWriter& Bool(bool value);

  // The document so far. Pretty-printed with two-space indentation and a
  // trailing newline, so shell users and golden files both read naturally.
  std::string str() const;

  static std::string Escape(const std::string& text);

 private:
  void BeforeValue();
  void Indent();

  std::string out_;
  // One frame per open container: true = object, false = array.
  std::vector<bool> stack_;
  bool first_in_scope_ = true;
  bool after_key_ = false;
};

}  // namespace cli
}  // namespace kvec


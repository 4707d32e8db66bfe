#include "cli/json_writer.h"

#include <cmath>
#include <cstdio>

namespace kvec {
namespace cli {

std::string JsonWriter::Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
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
  return out;
}

void JsonWriter::Indent() {
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (!first_in_scope_) out_ += ",";
    out_ += "\n";
    Indent();
  }
  first_in_scope_ = false;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += "{";
  stack_.push_back(true);
  first_in_scope_ = true;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  bool empty = first_in_scope_;
  stack_.pop_back();
  if (!empty) {
    out_ += "\n";
    Indent();
  }
  out_ += "}";
  first_in_scope_ = false;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += "[";
  stack_.push_back(false);
  first_in_scope_ = true;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  bool empty = first_in_scope_;
  stack_.pop_back();
  if (!empty) {
    out_ += "\n";
    Indent();
  }
  out_ += "]";
  first_in_scope_ = false;
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  if (!first_in_scope_) out_ += ",";
  out_ += "\n";
  Indent();
  out_ += "\"" + Escape(name) + "\": ";
  first_in_scope_ = false;
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  BeforeValue();
  out_ += "\"" + Escape(value) + "\"";
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value, int precision) {
  BeforeValue();
  // JSON has no NaN/Infinity tokens; a diverged metric must not make the
  // whole document unparsable.
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

std::string JsonWriter::str() const { return out_ + "\n"; }

}  // namespace cli
}  // namespace kvec

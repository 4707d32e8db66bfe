#include "cli/args.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace kvec {
namespace cli {

ArgParser::ArgParser(std::string command) : command_(std::move(command)) {}

std::string* ArgParser::AddString(const std::string& name,
                                  std::string default_value,
                                  const std::string& help) {
  strings_.push_back(std::make_unique<std::string>(std::move(default_value)));
  Flag flag;
  flag.name = name;
  flag.kind = Kind::kString;
  flag.help = help;
  flag.default_text = *strings_.back();
  flag.value_index = strings_.size() - 1;
  flags_.push_back(std::move(flag));
  return strings_.back().get();
}

int64_t* ArgParser::AddInt(const std::string& name, int64_t default_value,
                           const std::string& help, IntRange range) {
  ints_.push_back(std::make_unique<int64_t>(default_value));
  Flag flag;
  flag.name = name;
  flag.kind = Kind::kInt;
  flag.help = help;
  flag.default_text = std::to_string(default_value);
  flag.range = range;
  flag.value_index = ints_.size() - 1;
  flags_.push_back(std::move(flag));
  return ints_.back().get();
}

double* ArgParser::AddDouble(const std::string& name, double default_value,
                             const std::string& help) {
  doubles_.push_back(std::make_unique<double>(default_value));
  Flag flag;
  flag.name = name;
  flag.kind = Kind::kDouble;
  flag.help = help;
  std::ostringstream text;
  text << default_value;
  flag.default_text = text.str();
  flag.value_index = doubles_.size() - 1;
  flags_.push_back(std::move(flag));
  return doubles_.back().get();
}

bool* ArgParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help) {
  bools_.push_back(std::make_unique<bool>(default_value));
  Flag flag;
  flag.name = name;
  flag.kind = Kind::kBool;
  flag.help = help;
  flag.default_text = default_value ? "true" : "false";
  flag.value_index = bools_.size() - 1;
  flags_.push_back(std::move(flag));
  return bools_.back().get();
}

ArgParser::Flag* ArgParser::FindFlag(const std::string& name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool ArgParser::SetValue(Flag* flag, const std::string& text) {
  switch (flag->kind) {
    case Kind::kString:
      *strings_[flag->value_index] = text;
      return true;
    case Kind::kInt: {
      errno = 0;
      char* end = nullptr;
      long long value = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        error_ = "--" + flag->name + " expects an integer, got '" + text + "'";
        return false;
      }
      if (value < flag->range.min || value > flag->range.max) {
        error_ = "--" + flag->name + " must be in [" +
                 std::to_string(flag->range.min) + ", " +
                 std::to_string(flag->range.max) + "], got " + text;
        return false;
      }
      *ints_[flag->value_index] = value;
      return true;
    }
    case Kind::kDouble: {
      errno = 0;
      char* end = nullptr;
      double value = std::strtod(text.c_str(), &end);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        error_ = "--" + flag->name + " expects a number, got '" + text + "'";
        return false;
      }
      *doubles_[flag->value_index] = value;
      return true;
    }
    case Kind::kBool:
      error_ = "--" + flag->name + " takes no value (use --" + flag->name +
               " or --no-" + flag->name + ")";
      return false;
  }
  return false;
}

bool ArgParser::Parse(const std::vector<std::string>& args) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
      error_ = "unexpected argument '" + arg + "'";
      return false;
    }
    std::string body = arg.substr(2);
    std::string inline_value;
    bool has_inline_value = false;
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      inline_value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_inline_value = true;
    }

    // `--no-flag` for booleans.
    if (!has_inline_value && body.compare(0, 3, "no-") == 0) {
      Flag* flag = FindFlag(body.substr(3));
      if (flag != nullptr && flag->kind == Kind::kBool) {
        *bools_[flag->value_index] = false;
        flag->provided = true;
        continue;
      }
    }

    Flag* flag = FindFlag(body);
    if (flag == nullptr) {
      error_ = "unknown flag --" + body;
      return false;
    }
    flag->provided = true;
    if (flag->kind == Kind::kBool) {
      if (has_inline_value) {
        if (inline_value == "true") {
          *bools_[flag->value_index] = true;
        } else if (inline_value == "false") {
          *bools_[flag->value_index] = false;
        } else {
          error_ = "--" + flag->name + "= expects true or false, got '" +
                   inline_value + "'";
          return false;
        }
      } else {
        *bools_[flag->value_index] = true;
      }
      continue;
    }
    if (!has_inline_value) {
      if (i + 1 >= args.size()) {
        error_ = "--" + flag->name + " is missing its value";
        return false;
      }
      inline_value = args[++i];
    }
    if (!SetValue(flag, inline_value)) return false;
  }
  return true;
}

bool ArgParser::Provided(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return flag.provided;
  }
  return false;
}

std::string ArgParser::Usage() const {
  std::ostringstream out;
  out << "usage: " << command_ << " [flags]\n";
  size_t width = 0;
  for (const Flag& flag : flags_) {
    width = std::max(width, flag.name.size());
  }
  for (const Flag& flag : flags_) {
    out << "  --" << flag.name
        << std::string(width - flag.name.size() + 2, ' ') << flag.help
        << " (default: " << flag.default_text << ")\n";
  }
  return out.str();
}

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> parts;
  if (text.empty()) return parts;
  size_t start = 0;
  while (true) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace cli
}  // namespace kvec

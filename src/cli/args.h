// Flag parsing for the `kvec` driver binary (apps/kvec.cc).
//
// A deliberately small layer: every subcommand declares its flags up front
// (name, type, default, help line), then parses `--name value` /
// `--name=value` argument vectors. Parsing fails closed — an unknown flag,
// a missing value, or an unparsable number produces an error message plus
// the flag table, never a partially-applied configuration. `--help` is
// always recognised.
//
// Not thread-safe (a parser is built, used, and discarded inside one
// subcommand invocation); no global state, so concurrent RunKvecCli calls
// with separate parsers are fine (tests/cli_test.cc drives it in-process).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace kvec {
namespace cli {

// The values an int flag accepts; Parse rejects any other as a usage error.
struct IntRange {
  int64_t min = std::numeric_limits<int64_t>::min();
  int64_t max = std::numeric_limits<int64_t>::max();
};

// [min, INT_MAX]: the range of a flag the subcommand narrows to int, so
// that its static_cast<int> is exact.
inline IntRange IntAtLeast(int64_t min) {
  return {min, std::numeric_limits<int>::max()};
}

class ArgParser {
 public:
  // `command` is the usage prefix, e.g. "kvec train".
  explicit ArgParser(std::string command);

  // Flag registration. The returned pointer stays valid for the parser's
  // lifetime and holds the default until Parse overwrites it.
  std::string* AddString(const std::string& name, std::string default_value,
                         const std::string& help);
  int64_t* AddInt(const std::string& name, int64_t default_value,
                  const std::string& help, IntRange range = {});
  double* AddDouble(const std::string& name, double default_value,
                    const std::string& help);
  // Boolean flags take no value: `--flag` sets true, `--no-flag` sets false.
  bool* AddBool(const std::string& name, bool default_value,
                const std::string& help);

  // Parses `args` (argv minus the program and subcommand names). Returns
  // false on any error, with a one-line diagnostic in `error()`. After a
  // successful parse, `help_requested()` reports whether --help was seen
  // (flag values are still populated).
  bool Parse(const std::vector<std::string>& args);

  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }
  // True when the user passed the flag explicitly (vs. the default).
  bool Provided(const std::string& name) const;

  // The aligned flag table (name, default, help), for usage output.
  std::string Usage() const;

 private:
  enum class Kind { kString, kInt, kDouble, kBool };

  struct Flag {
    std::string name;
    Kind kind = Kind::kString;
    std::string help;
    std::string default_text;
    IntRange range;  // kInt only
    bool provided = false;
    // Exactly one is live, per kind. Deques would avoid the indirection but
    // pointers into std::vector<unique_ptr-free> members must stay stable,
    // so values are heap-boxed via the vectors below.
    size_t value_index = 0;
  };

  Flag* FindFlag(const std::string& name);
  bool SetValue(Flag* flag, const std::string& text);

  std::string command_;
  std::vector<Flag> flags_;
  // Value storage; boxed separately per type so registration order cannot
  // invalidate earlier pointers.
  std::vector<std::unique_ptr<std::string>> strings_;
  std::vector<std::unique_ptr<int64_t>> ints_;
  std::vector<std::unique_ptr<double>> doubles_;
  std::vector<std::unique_ptr<bool>> bools_;
  bool help_requested_ = false;
  std::string error_;
};

// Splits "a,b,c" into {"a","b","c"}; empty input gives an empty list.
std::vector<std::string> SplitCommaList(const std::string& text);

}  // namespace cli
}  // namespace kvec


// Argument parser shared by the bench and example binaries.
//
// Forms: --key=value, --key value, --flag, and positional words.
//
// Each binary declares its flags, by name and kind, and the constructor is
// then the only parser. It prints the offending flag and value with a usage
// line and exits 2 on an undeclared or repeated flag, a value on a bool
// flag, a valued flag with no value, and an int or double that does not
// parse in full or lies outside the flag's range. A bool flag never takes
// the next word as its value, so names may follow flags.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace svmsim::harness {

class Cli {
 public:
  enum class Kind { kBool, kInt, kDouble, kString };

  struct Flag {
    std::string_view name;
    Kind kind;
    long min = std::numeric_limits<long>::min();  ///< kInt only
    long max = std::numeric_limits<long>::max();  ///< kInt only
  };

  /// Strict: parse argv against the declared `flags` (a table that outlives
  /// the Cli, in practice a static array), exiting 2 on any usage error.
  /// Reading an undeclared flag throws std::logic_error.
  Cli(int argc, char** argv, std::span<const Flag> flags);

  /// Permissive tokenizing, kept only for the frozen perfbench/svmbench.cpp
  /// and removed with the next benchmark change (like SimConfig::par_cores):
  /// any --name is accepted, a bare flag takes the next non-flag word as its
  /// value, and the first of a repeated flag wins. Values are not checked.
  Cli(int argc, char** argv);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& def) const;
  [[nodiscard]] long get_int(const std::string& key, long def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  /// argv[0], for diagnostics.
  [[nodiscard]] const std::string& prog() const { return prog_; }

  /// The value of a flag spelled by `names` (a table of {spelling, value}),
  /// or `def` when absent; any other spelling is a usage error.
  template <class E, std::size_t N>
  [[nodiscard]] E get_enum(const std::string& key,
                           const std::pair<std::string_view, E> (&names)[N],
                           E def) const {
    const auto v = get(key);
    if (!v) return def;
    std::string expected;
    for (const auto& [name, value] : names) {
      if (name == *v) return value;
      expected += (expected.empty() ? "" : "|") + std::string(name);
    }
    fail("unknown --" + key + " value '" + *v + "' (expected " + expected +
         ")");
  }

  /// Print "<prog>: <msg>" and the usage line, then exit 2.
  [[noreturn]] void fail(const std::string& msg) const;

 private:
  Cli(int argc, char** argv, std::span<const Flag> flags, bool strict);
  [[nodiscard]] const Flag* declared(std::string_view name) const;

  std::string prog_;
  bool strict_;
  std::span<const Flag> flags_;
  std::unordered_map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

/// The spelling of `value` in a {spelling, value} table ("?" if absent).
template <class E, std::size_t N>
[[nodiscard]] std::string_view spelling(
    const std::pair<std::string_view, E> (&names)[N], E value) {
  for (const auto& [name, v] : names) {
    if (v == value) return name;
  }
  return "?";
}

}  // namespace svmsim::harness

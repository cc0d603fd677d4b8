// Tiny argument parser shared by bench/example binaries.
//
// Supported forms: --key=value, --key value, --flag.
#pragma once

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace svmsim::harness {

class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& def) const;
  [[nodiscard]] long get_int(const std::string& key, long def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool has(const std::string& key) const;
  /// The first flag name (in argv order) not in `known`, or nullopt when
  /// every flag is declared. Names only: values are not checked.
  [[nodiscard]] std::optional<std::string> unknown(
      std::initializer_list<std::string_view> known) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::unordered_map<std::string, std::string> kv_;
  std::vector<std::string> names_;  ///< flag names in argv order
  std::vector<std::string> positional_;
};

}  // namespace svmsim::harness

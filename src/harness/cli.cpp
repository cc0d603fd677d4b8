#include "harness/cli.hpp"

#include <algorithm>
#include <cstdlib>

namespace svmsim::harness {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    names_.emplace_back(arg.substr(0, eq));
    if (eq != std::string_view::npos) {
      kv_.emplace(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      kv_.emplace(std::string(arg), std::string(argv[++i]));
    } else {
      kv_.emplace(std::string(arg), "1");
    }
  }
}

std::optional<std::string> Cli::get(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& key, const std::string& def) const {
  return get(key).value_or(def);
}

long Cli::get_int(const std::string& key, long def) const {
  auto v = get(key);
  return v ? std::strtol(v->c_str(), nullptr, 10) : def;
}

double Cli::get_double(const std::string& key, double def) const {
  auto v = get(key);
  return v ? std::strtod(v->c_str(), nullptr) : def;
}

bool Cli::has(const std::string& key) const { return kv_.contains(key); }

std::optional<std::string> Cli::unknown(
    std::initializer_list<std::string_view> known) const {
  for (const std::string& name : names_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return name;
    }
  }
  return std::nullopt;
}

}  // namespace svmsim::harness

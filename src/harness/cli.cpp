#include "harness/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace svmsim::harness {

namespace {

/// Whether all of `v` reads as one number of `kind` (no blanks, no tail).
bool parses_in_full(Cli::Kind kind, std::string_view v, long& out) {
  const char* end = v.data() + v.size();
  if (kind == Cli::Kind::kInt) {
    const auto r = std::from_chars(v.data(), end, out);
    return r.ec == std::errc{} && r.ptr == end;
  }
  double d = 0;
  const auto r = std::from_chars(v.data(), end, d);
  return r.ec == std::errc{} && r.ptr == end;
}

}  // namespace

Cli::Cli(int argc, char** argv, std::span<const Flag> flags)
    : Cli(argc, argv, flags, true) {}

Cli::Cli(int argc, char** argv) : Cli(argc, argv, {}, false) {}

Cli::Cli(int argc, char** argv, std::span<const Flag> flags, bool strict)
    : prog_(argc > 0 ? argv[0] : "?"), strict_(strict), flags_(flags) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    // Permissive parsing declares nothing, so every check below is off.
    const Flag* f = declared(name);
    if (strict_ && f == nullptr) fail("unknown flag '--" + name + "'");
    if (strict_ && kv_.contains(name)) fail("repeated flag '--" + name + "'");
    const bool is_bool = f != nullptr && f->kind == Kind::kBool;
    std::string value = "1";
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      if (is_bool) fail("--" + name + " takes no value, got '" + value + "'");
    } else if (!is_bool && i + 1 < argc &&
               std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      value = argv[++i];
    } else if (f != nullptr && !is_bool) {
      fail("--" + name + " needs a value");
    }
    if (f != nullptr && (f->kind == Kind::kInt || f->kind == Kind::kDouble)) {
      long n = 0;
      if (!parses_in_full(f->kind, value, n)) {
        fail("--" + name + " value '" + value + "' is not " +
             (f->kind == Kind::kInt ? "an integer" : "a number"));
      }
      if (f->kind == Kind::kInt && (n < f->min || n > f->max)) {
        fail("--" + name + " value '" + value + "' is outside [" +
             std::to_string(f->min) + ", " + std::to_string(f->max) + "]");
      }
    }
    kv_.emplace(name, std::move(value));  // the first of a repeat wins
  }
}

const Cli::Flag* Cli::declared(std::string_view name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

void Cli::fail(const std::string& msg) const {
  std::string usage;
  for (const Flag& f : flags_) {
    static constexpr const char* kValue[] = {"", "=N", "=X", "=S"};
    usage += " [--" + std::string(f.name) + kValue[static_cast<int>(f.kind)] +
             "]";
  }
  std::fprintf(stderr, "%s: %s\nusage: %s%s\n", prog_.c_str(), msg.c_str(),
               prog_.c_str(), usage.c_str());
  std::exit(2);
}

std::optional<std::string> Cli::get(const std::string& key) const {
  if (strict_ && declared(key) == nullptr) {
    throw std::logic_error("Cli: --" + key + " is read but not declared");
  }
  auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& key, const std::string& def) const {
  return get(key).value_or(def);
}

// A declared number was checked in full by the constructor, so these
// conversions read it exactly; in the permissive form they read a prefix.
long Cli::get_int(const std::string& key, long def) const {
  auto v = get(key);
  return v ? std::strtol(v->c_str(), nullptr, 10) : def;
}

double Cli::get_double(const std::string& key, double def) const {
  auto v = get(key);
  return v ? std::strtod(v->c_str(), nullptr) : def;
}

bool Cli::has(const std::string& key) const { return get(key).has_value(); }

}  // namespace svmsim::harness

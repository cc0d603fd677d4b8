// Trace analyzer: recompute per-category time breakdowns, counters, and the
// hottest pages/locks from a binary trace, and cross-check them against the
// core::Stats embedded in the file (the whole-simulation correctness oracle).
//
//   trace_analyze <trace.bin>            print the analysis report
//   trace_analyze --check <trace.bin>    verify; exit 1 on any mismatch
//   trace_analyze --run [--app=fft] [--protocol=hlrc|aurc] [--scale=tiny]
//                 [--out=<file>] [--check] [--top=N] [--trace-categories=..]
//       drive one traced run, write the trace, re-read it, and analyze.
//       This mode backs the trace_analyze_check_* ctest entries.
//
// Flags and trace files may come in any order. An undeclared or repeated
// flag and an unknown --protocol or --scale exit 2 (harness::Cli).
#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "apps/registry.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "harness/cli.hpp"
#include "trace/analyze.hpp"
#include "trace/trace.hpp"

namespace {

using namespace svmsim;

int analyze_file(const std::string& path, bool check_only, std::size_t top_n) {
  const trace::TraceFile f = trace::read_file(path);
  const std::vector<std::string> mismatches = trace::check(f);
  if (!check_only) {
    const trace::Analysis a = trace::analyze(f, top_n);
    std::fputs(trace::report(f, a).c_str(), stdout);
  }
  if (!mismatches.empty()) {
    std::fprintf(stderr, "%s: %zu mismatch(es) against embedded Stats:\n",
                 path.c_str(), mismatches.size());
    for (const std::string& m : mismatches) {
      std::fprintf(stderr, "  %s\n", m.c_str());
    }
    return 1;
  }
  std::printf("%s: OK (%zu records reproduce core::Stats exactly)\n",
              path.c_str(), f.records.size());
  return 0;
}

int run_and_analyze(const harness::Cli& cli, bool check_only,
                    std::size_t top_n) {
  const std::string app_name = cli.get_or("app", "fft");
  const Protocol proto =
      cli.get_enum("protocol", kProtocolNames, Protocol::kHLRC);
  const std::string proto_name(harness::spelling(kProtocolNames, proto));
  const apps::Scale scale =
      cli.get_enum("scale", apps::kScaleNames, apps::Scale::kTiny);
  const std::string out = cli.get_or(
      "out", "trace_analyze." + app_name + "-" + proto_name + ".bin");

  SimConfig cfg;
  cfg.comm = CommParams::achievable();
  cfg.comm.protocol = proto;
  cfg.trace.enabled = true;
  cfg.trace.path = out;
  if (auto cats = cli.get("trace-categories")) {
    auto mask = trace::parse_mask(*cats);
    if (!mask) cli.fail("unknown --trace-categories value '" + *cats + "'");
    cfg.trace.mask = *mask;
  }

  std::unique_ptr<Workload> app = apps::make_app(app_name, scale);
  const RunResult r = run(*app, cfg);
  std::printf("ran %s/%s/%s: time=%llu events=%llu validated=%d\n",
              app_name.c_str(), proto_name.c_str(),
              apps::to_string(scale).c_str(),
              static_cast<unsigned long long>(r.time),
              static_cast<unsigned long long>(r.events), (int)r.validated);
  if (!r.validated) {
    std::fprintf(stderr, "trace_analyze: %s failed validation\n",
                 app_name.c_str());
    return 1;
  }
  return analyze_file(out, check_only, top_n);
}

}  // namespace

int main(int argc, char** argv) {
  using Kind = harness::Cli::Kind;
  static constexpr harness::Cli::Flag kFlags[] = {
      {"check", Kind::kBool}, {"top", Kind::kInt, 0}, {"run", Kind::kBool},
      {"app", Kind::kString}, {"protocol", Kind::kString},
      {"scale", Kind::kString}, {"out", Kind::kString},
      {"trace-categories", Kind::kString}};
  const harness::Cli cli(argc, argv, kFlags);
  const bool check_only = cli.has("check");
  const auto top_n = static_cast<std::size_t>(cli.get_int("top", 10));
  try {
    if (cli.has("run")) return run_and_analyze(cli, check_only, top_n);
    const std::vector<std::string>& paths = cli.positional();
    if (paths.empty()) cli.fail("no trace file given (or --run)");
    int rc = 0;
    for (const std::string& path : paths) {
      rc |= analyze_file(path, check_only, top_n);
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_analyze: %s\n", e.what());
    return 1;
  }
}

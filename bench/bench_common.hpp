// Shared infrastructure for the bench executables: paper's option parser
// (Options), the --apps and --topology readers it shares with sweep_dump, and
// the one builder of simulation points (PointBuilder).
//
// Options::parse accepts:
//   --scale=tiny|small|large   problem sizes (default small)
//   --csv=<dir>                also dump machine-readable CSV (a missing
//                              or unwritable directory exits 2)
//   --apps=a,b,c               restrict to a subset of the suite (an
//                              unknown name exits 2)
//   --jobs=N                   run up to N simulation points concurrently
//                              (1..256; default: hardware concurrency;
//                              1 = serial)
//   --trace=<file>             record a binary event trace per sweep point
//                              (each point writes <file>.<figure>.<app>-<i>)
//   --trace-categories=a,b     restrict tracing to page,lock,net,irq,sched
//   --check-consistency        run the shadow consistency checker on every
//                              point (exit 1 if any violation is found)
//   --topology=crossbar|fattree:<k>|torus:<X>x<Y>[x<Z>]
//                              interconnect for every sweep point (default
//                              crossbar, the paper's contention-free
//                              network, also spelled legacy; see
//                              docs/topology.md). Malformed or unfitting
//                              specs exit kExitBadTopology.
//   --link-bytes-per-cycle=F / --wire-latency=N
//                              override the corresponding ArchParams
//                              fields; values ArchParams::validate()
//                              rejects exit kExitBadArch.
//
// harness::Cli parses them against Options::parse's flag table: an
// undeclared or repeated flag, a value on --check-consistency and a number
// that does not parse in full exit 2 naming the flag, as does an unknown
// --scale, --apps or --trace-categories value. Non-flag words are the
// figure names (Options::names), before or after the flags.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "check/config.hpp"
#include "core/params.hpp"
#include "harness/cli.hpp"
#include "harness/job_pool.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "trace/config.hpp"

namespace svmsim::bench {

/// Exit code for an invalid simulated cluster size (--procs):
/// not a positive multiple of procs_per_node, or larger than
/// kMaxTotalProcs. Distinct from the generic bad-flag exit(2) so scripts
/// (and the death tests) can branch on it.
inline constexpr int kExitBadProcs = 4;

/// Exit code for a malformed or unusable --topology spec: a string
/// topo::Spec::parse rejects ("torus:0x4", "fattree:3"), or a well-formed
/// spec that does not fit the simulated node count (a 4x4 torus under 64
/// nodes). Distinct from exit(2) and kExitBadProcs so scripts and the death
/// tests can branch on it.
inline constexpr int kExitBadTopology = 5;

/// Exit code for architecture parameters rejected by ArchParams::validate()
/// (e.g. --link-bytes-per-cycle=0): the zero/NaN values would divide into
/// infinite serialization times or deliveries that are not strictly in the
/// future.
inline constexpr int kExitBadArch = 6;

/// Exit code for a rejected --replay schedule file in bench/explore: the
/// file is missing, truncated, not a schedule, the wrong format version,
/// corrupt, or recorded against a different (app, config) fingerprint. The
/// specific reason is printed; the code is shared so scripts can branch on
/// "the schedule file is unusable" without parsing the diagnostic.
inline constexpr int kExitBadSchedule = 7;

/// Largest simulated cluster a bench accepts: 16384 nodes at the paper's 4
/// processors per node. The simulator itself has no hard ceiling, but a
/// typo'd size (e.g. a missing comma merging two list entries) would
/// otherwise try to allocate per-node state for millions of nodes and OOM
/// long after parse time.
inline constexpr long kMaxTotalProcs = 65536;

/// Validate a requested total_procs value against the machine granularity at
/// CLI parse time: it must be a positive multiple of procs_per_node (nodes
/// are whole) and at most kMaxTotalProcs. Returns the value on success;
/// prints a diagnostic naming `flag` and exits kExitBadProcs otherwise.
int checked_total_procs(const char* argv0, const char* flag, long total,
                        int procs_per_node);

/// Validate a topology spec against a simulated node count (topo::fits).
/// Prints a diagnostic and exits kExitBadTopology on a misfit; a fitting
/// spec passes through. Benches call this per sweep point, after the
/// point's cluster size is known.
void checked_topology(const char* argv0, const topo::Spec& spec, int nodes);

/// --apps as a comma list of apps::make_app names, or `def` when absent.
/// An unknown name exits 2.
[[nodiscard]] std::vector<std::string> read_apps(const harness::Cli& cli,
                                                 std::vector<std::string> def);

/// --topology as a topo::Spec, or the crossbar when absent. A malformed
/// spec exits kExitBadTopology.
[[nodiscard]] topo::Spec read_topology(const harness::Cli& cli);

/// For benches that print raw results and have no failed cell: names every
/// failed run on stderr and exits 1 when there is one, so a deadlock or a
/// rejected config never passes as a row of zeros.
void exit_on_failed_point(const char* argv0,
                          std::span<const harness::AppRun> runs);

struct Options {
  apps::Scale scale = apps::Scale::kSmall;
  std::string csv_dir;
  /// The non-flag words: paper's figure names.
  std::vector<std::string> names;
  std::vector<std::string> app_names;
  int jobs = 1;
  /// SimConfig::topology for every sweep point (--topology=crossbar|
  /// fattree:k|torus:XxY[xZ]; default legacy). Malformed specs exit
  /// kExitBadTopology at parse time; fit against the cluster size is
  /// checked per point (checked_topology).
  topo::Spec topology;
  /// SimConfig::arch for every sweep point, with any --link-bytes-per-cycle
  /// / --wire-latency overrides applied; values ArchParams::validate()
  /// rejects exit kExitBadArch at parse time.
  ArchParams arch;
  /// argv[0] as seen at parse time, for later diagnostics ("bench" when
  /// argv was empty).
  std::string prog = "bench";
  trace::Config trace;  ///< applied to every sweep point (path is a prefix)
  check::Config check;  ///< applied to every sweep point

  static Options parse(int argc, char** argv);

  /// The shared worker pool implied by --jobs, or nullptr when serial.
  [[nodiscard]] harness::JobPool* pool() const { return pool_.get(); }

 private:
  std::shared_ptr<harness::JobPool> pool_;
};

/// The paper's default machine at the achievable point.
[[nodiscard]] SimConfig base_config();

/// The one way a bench builds simulation points. Every point starts at
/// base_config(), takes the caller's edit, then every Options field that
/// applies to a run: arch, topology (fit-checked against the point's node
/// count, since the edit may resize the cluster; a misfit exits
/// kExitBadTopology), trace and check. With --trace, the i-th
/// point of an app writes <prefix>.<figure>.<app>-<i>, so two figures of one
/// run never share a trace file.
class PointBuilder {
 public:
  PointBuilder(std::string figure, const Options& opt)
      : figure_(std::move(figure)), opt_(opt) {}

  [[nodiscard]] const Options& opt() const { return opt_; }

  /// One point: `app` at base_config() edited by `edit`, recorded as
  /// AppRun::param `value`.
  void add(const std::string& app, double value,
           const std::function<void(SimConfig&)>& edit = nullptr);

  /// Every app of opt().app_names at every value, row-major; apply(cfg, v)
  /// writes the value into the point's config.
  void sweep(const std::vector<double>& values,
             const std::function<void(SimConfig&, double)>& apply);

  [[nodiscard]] std::vector<harness::SweepPoint> take() {
    return std::move(points_);
  }

 private:
  std::string figure_;
  const Options& opt_;
  std::map<std::string, int> per_app_;  ///< points added so far, per app
  std::vector<harness::SweepPoint> points_;
};

}  // namespace svmsim::bench

#include "figures.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace svmsim::bench {
namespace {

using harness::AppRun;
using harness::fmt;
using harness::Table;
using Runs = std::span<const AppRun>;
using Apply = std::function<void(SimConfig&, double)>;
using Edit = std::function<void(SimConfig&)>;

constexpr const char* kFail = "FAIL";

/// A cell showing `v`, a value read from run `r`: FAIL when `r` failed.
std::string cell(const AppRun& r, double v, int precision = 2) {
  return r.failed() ? kFail : fmt(v, precision);
}

std::string speedup_cell(const AppRun& r) { return cell(r, r.speedup()); }

bool any_failed(Runs runs) {
  return std::any_of(runs.begin(), runs.end(),
                     [](const AppRun& r) { return r.failed(); });
}

/// Print `== title ==`, the table, and its CSV as <csv_dir>/<csv>.csv.
void emit(const std::string& title, const Table& t, const std::string& csv,
          const Options& opt) {
  std::printf("== %s ==\n", title.c_str());
  t.print();
  harness::maybe_write_csv(t, opt.csv_dir, csv);
}

/// One row per app; cell j of an app's row comes from its j-th run.
Table app_rows(std::vector<std::string> header, Runs runs, const Options& opt,
               const std::function<std::string(const AppRun&)>& cell_of) {
  const std::size_t cols = header.size() - 1;
  Table t(std::move(header));
  for (std::size_t a = 0; a < opt.app_names.size(); ++a) {
    std::vector<std::string> row{opt.app_names[a]};
    for (const AppRun& r : runs.subspan(a * cols, cols)) {
      row.push_back(cell_of(r));
    }
    t.add_row(std::move(row));
  }
  return t;
}

void set_overhead(SimConfig& c, double v) {
  c.comm.host_overhead = static_cast<Cycles>(v);
}
void set_occupancy(SimConfig& c, double v) {
  c.comm.ni_occupancy = static_cast<Cycles>(v);
}
void set_io_bus(SimConfig& c, double v) { c.comm.io_bus_mb_per_mhz = v; }
void set_interrupt(SimConfig& c, double v) {
  c.comm.interrupt_cost = static_cast<Cycles>(v);
}
void set_page(SimConfig& c, double v) {
  c.comm.page_bytes = static_cast<std::uint32_t>(v);
}
void set_ppn(SimConfig& c, double v) {
  c.comm.procs_per_node = static_cast<int>(v);
}
void set_best(SimConfig& c) { c.comm = CommParams::best(); }

std::string label3(double v) { return fmt(v, 3); }

/// A one-parameter sweep over the suite (Figures 5, 7, 8, 10, 12-14).
struct SweepSpec {
  std::string label;  ///< table title and CSV name, e.g. "fig05"
  std::string param;  ///< column prefix, e.g. "overhead"
  std::vector<double> values;
  Apply apply;
  std::function<std::string(double)> value_label;  ///< fmt(v, 0) when null
};

/// Speedup table: one row per app, one column per swept value.
void print_sweep(const SweepSpec& s, Runs runs, const Options& opt) {
  std::vector<std::string> header{"application"};
  for (double v : s.values) {
    header.push_back(s.param + "=" +
                     (s.value_label ? s.value_label(v) : fmt(v, 0)));
  }
  emit(s.label + ": speedup (16 processors) vs " + s.param,
       app_rows(std::move(header), runs, opt, speedup_cell), s.label, opt);
}

Figure sweep_figure(std::string name, SweepSpec s) {
  return {std::move(name),
          [s](PointBuilder& b) { b.sweep(s.values, s.apply); },
          [s](Runs runs, const Options& opt) { print_sweep(s, runs, opt); }};
}

/// Normalized-correlation figure (Figures 6/9/11): slowdown between the
/// sweep's endpoints against a per-app predictor metric read from the first
/// endpoint, both normalized to their maxima. An app with a failed point has
/// no relation point: both its cells print FAIL and it stays out of both
/// maxima.
struct RelationSpec {
  std::string label;
  std::string slowdown_label;
  std::string metric_label;
  std::function<double(const AppRun&)> metric;
};

void print_relation(const RelationSpec& rel, Runs runs, std::size_t per_app,
                    const Options& opt) {
  const std::size_t apps = opt.app_names.size();
  std::vector<double> slowdowns(apps);
  std::vector<double> metrics(apps);
  std::vector<bool> failed(apps);
  double max_s = 1e-12;
  double max_m = 1e-12;
  for (std::size_t a = 0; a < apps; ++a) {
    const Runs sweep = runs.subspan(a * per_app, per_app);
    failed[a] = any_failed(sweep);
    if (failed[a]) continue;
    slowdowns[a] = std::max(0.0, harness::max_slowdown_pct(sweep));
    metrics[a] = rel.metric(sweep.front());
    max_s = std::max(max_s, slowdowns[a]);
    max_m = std::max(max_m, metrics[a]);
  }
  Table t({"application", rel.slowdown_label, rel.metric_label});
  for (std::size_t a = 0; a < apps; ++a) {
    if (failed[a]) {
      t.add_row({opt.app_names[a], kFail, kFail});
    } else {
      t.add_row({opt.app_names[a], fmt(slowdowns[a] / max_s),
                 fmt(metrics[a] / max_m)});
    }
  }
  emit(rel.label + ": normalized " + rel.slowdown_label + " vs normalized " +
           rel.metric_label,
       t, rel.label, opt);
}

Figure relation_figure(std::string name, SweepSpec s, RelationSpec rel) {
  return {std::move(name),
          [s](PointBuilder& b) { b.sweep(s.values, s.apply); },
          [s, rel](Runs runs, const Options& opt) {
            print_sweep(s, runs, opt);
            print_relation(rel, runs, s.values.size(), opt);
          }};
}

/// Table 1: ranges, achievable and best values of the communication
/// parameters under consideration. Simulates nothing.
void print_table1(Runs, const Options& opt) {
  Table t({"Parameter", "Range", "Achievable", "Best"});
  t.add_row({"Host overhead (cycles)", "0 - 2000", "500", "0"});
  t.add_row({"I/O bus bandwidth (MB/s per MHz)", "0.125 - 2.0", "0.5", "2.0"});
  t.add_row({"NI occupancy (cycles/packet)", "0 - 4000", "1000", "0"});
  t.add_row({"Interrupt cost (cycles, each way)", "0 - 5000", "500", "0"});
  t.add_row({"Page size (bytes)", "1K - 16K", "4096", "-"});
  t.add_row({"Processors per node (16 total)", "1 - 8", "4", "-"});
  emit("Table 1: communication parameter ranges", t, "table1", opt);

  const CommParams ach = CommParams::achievable();
  std::printf(
      "\nAt a nominal 200 MHz processor the achievable point is: host "
      "overhead %llu cycles, I/O bus %.0f MB/s, NI occupancy %llu cycles "
      "(%.1f us), null interrupt %llu cycles.\n",
      static_cast<unsigned long long>(ach.host_overhead),
      ach.io_bus_mb_per_mhz * 200.0,
      static_cast<unsigned long long>(ach.ni_occupancy),
      static_cast<double>(ach.ni_occupancy) / 200.0,
      static_cast<unsigned long long>(2 * ach.interrupt_cost));
}

/// Figure 1: ideal and realistic (achievable) speedups for each
/// application, on 16 processors with 4 per node.
void print_fig01(Runs runs, const Options& opt) {
  Table t({"application", "achievable speedup", "ideal speedup"});
  for (const AppRun& r : runs) {
    t.add_row({r.app, speedup_cell(r), cell(r, r.ideal_speedup())});
  }
  emit("Figure 1: ideal vs achievable speedups (16 procs, 4/node)", t,
       "fig01", opt);
}

/// Table 2 and Figures 3/4 run the suite at 1, 4 and 8 processors per node.
const std::vector<double> kClusterings{1, 4, 8};

/// Table 2: protocol events per processor per million compute cycles for
/// each application, at 1, 4 and 8 processors per node (16 total).
void print_table2(Runs runs, const Options& opt) {
  Table t({"application", "procs/node", "page faults", "page fetches",
           "local locks", "remote locks", "barriers"});
  for (const AppRun& r : runs) {
    const auto& c = r.result.stats.counters();
    const auto rate = [&](std::uint64_t n) {
      return cell(r, r.result.per_proc_per_mcycles(n));
    };
    t.add_row({r.app, std::to_string(static_cast<int>(r.param)),
               rate(c.page_faults), rate(c.page_fetches),
               rate(c.local_lock_acquires), rate(c.remote_lock_acquires),
               rate(c.barriers / 16)});
  }
  emit("Table 2: protocol events per processor per M compute cycles", t,
       "table2", opt);
}

const std::vector<std::string> kClusteringHeader{
    "application", "1 proc/node", "4 procs/node", "8 procs/node"};

/// Figure 3: messages sent per processor per million compute cycles.
void print_fig03(Runs runs, const Options& opt) {
  emit("Figure 3: messages per processor per M compute cycles",
       app_rows(kClusteringHeader, runs, opt,
                [](const AppRun& r) {
                  return cell(r, r.result.per_proc_per_mcycles(
                                     r.result.stats.counters().messages_sent));
                }),
       "fig03", opt);
}

/// Figure 4: MBytes sent per processor per million compute cycles.
void print_fig04(Runs runs, const Options& opt) {
  emit("Figure 4: MBytes per processor per M compute cycles",
       app_rows(kClusteringHeader, runs, opt,
                [](const AppRun& r) {
                  const auto& s = r.result.stats;
                  const double mb =
                      static_cast<double>(s.counters().bytes_sent) / 1e6;
                  const double compute_m =
                      static_cast<double>(s.total_compute()) / 1e6;
                  return cell(r, compute_m > 0 ? mb / compute_m : 0, 3);
                }),
       "fig04", opt);
}

/// Table 3: maximum slowdown with respect to each communication parameter
/// over the experimental range (negative numbers indicate speedups).
struct Endpoints {
  const char* name;
  std::vector<double> values;  ///< best first, worst last
  Apply apply;
};
const std::vector<Endpoints> kTable3{
    {"host overhead", {0, 2000}, set_overhead},
    {"NI occupancy", {0, 4000}, set_occupancy},
    {"I/O bandwidth", {2.0, 0.125}, set_io_bus},
    {"interrupt cost", {0, 5000}, set_interrupt},
    {"page size", {1024, 16384}, set_page},
    {"procs/node", {1, 8}, set_ppn},
};

void table3_points(PointBuilder& b) {
  for (const auto& app : b.opt().app_names) {
    for (const Endpoints& p : kTable3) {
      for (double v : p.values) {
        b.add(app, v, [&](SimConfig& c) { p.apply(c, v); });
      }
    }
  }
}

void print_table3(Runs runs, const Options& opt) {
  std::vector<std::string> header{"application"};
  for (const Endpoints& p : kTable3) header.emplace_back(p.name);
  Table t(header);
  std::size_t i = 0;
  for (const auto& app : opt.app_names) {
    std::vector<std::string> row{app};
    for (const Endpoints& p : kTable3) {
      const Runs ends = runs.subspan(i, p.values.size());
      i += p.values.size();
      row.push_back(any_failed(ends)
                        ? kFail
                        : fmt(harness::max_slowdown_pct(ends), 1) + "%");
    }
    t.add_row(std::move(row));
  }
  emit("Table 3: max slowdown between range endpoints per parameter", t,
       "table3", opt);
}

/// Per app: the best configuration (value 0), then the achievable (1).
/// Table 4 and the §7 breakdowns.
void best_and_achievable_points(PointBuilder& b) {
  for (const auto& app : b.opt().app_names) {
    b.add(app, 0, set_best);
    b.add(app, 1);
  }
}

/// Table 4: best, achievable and ideal speedups for each application.
void print_table4(Runs runs, const Options& opt) {
  Table t({"application", "best", "achievable", "ideal"});
  for (std::size_t i = 0; i < opt.app_names.size(); ++i) {
    const AppRun& best = runs[2 * i];
    const AppRun& ach = runs[2 * i + 1];
    t.add_row({opt.app_names[i], speedup_cell(best), speedup_cell(ach),
               cell(ach, ach.ideal_speedup())});
  }
  emit("Table 4: best / achievable / ideal speedups", t, "table4", opt);
}

/// Paper §5 extras: interrupt sensitivity with uniprocessor nodes, then
/// fixed processor-0 delivery vs round-robin within SMP nodes.
const std::vector<double> kUniprocInterrupts{0, 500, 2500, 5000};
const InterruptScheme kSchemes[] = {InterruptScheme::kFixedProcessor,
                                    InterruptScheme::kRoundRobin};

void interrupt_scheme_points(PointBuilder& b) {
  b.sweep(kUniprocInterrupts, [](SimConfig& c, double v) {
    c.comm.procs_per_node = 1;
    set_interrupt(c, v);
  });
  for (const auto& app : b.opt().app_names) {
    for (InterruptScheme s : kSchemes) {
      b.add(app, static_cast<double>(s),
            [s](SimConfig& c) { c.comm.interrupt_scheme = s; });
    }
  }
}

void print_interrupt_schemes(Runs runs, const Options& opt) {
  const std::size_t uniproc = opt.app_names.size() * kUniprocInterrupts.size();
  emit("Extra (paper 5): interrupt-cost sweep, uniprocessor nodes",
       app_rows({"application", "intr=0", "intr=500", "intr=2500",
                 "intr=5000"},
                runs.first(uniproc), opt, speedup_cell),
       "extra_intr_uniproc", opt);
  emit("Extra (paper 5): fixed vs round-robin interrupt delivery",
       app_rows({"application", "fixed-proc0", "round-robin"},
                runs.subspan(uniproc), opt, speedup_cell),
       "extra_intr_scheme", opt);
}

/// Paper §6 guided simulations: the gap between achievable, best and ideal
/// performance, plus the paper's diagnostic what-ifs (free interrupts,
/// quadrupled I/O bandwidth, fetches made local).
const std::vector<Edit> kGapVariants{
    nullptr,  // achievable
    [](SimConfig& c) { c.comm.interrupt_cost = 0; },
    [](SimConfig& c) { c.comm.io_bus_mb_per_mhz *= 4.0; },
    [](SimConfig& c) { c.disable_remote_fetches = true; },
    set_best,
};

void gap_points(PointBuilder& b) {
  for (const auto& app : b.opt().app_names) {
    for (std::size_t v = 0; v < kGapVariants.size(); ++v) {
      b.add(app, static_cast<double>(v), kGapVariants[v]);
    }
  }
}

void print_gap(Runs runs, const Options& opt) {
  Table t({"application", "achievable", "free interrupts", "4x I/O bandwidth",
           "local fetches", "best", "ideal"});
  const std::size_t n = kGapVariants.size();
  for (std::size_t i = 0; i < opt.app_names.size(); ++i) {
    std::vector<std::string> row{opt.app_names[i]};
    for (const AppRun& r : runs.subspan(i * n, n)) {
      row.push_back(speedup_cell(r));
    }
    const AppRun& ach = runs[i * n];
    row.push_back(cell(ach, ach.ideal_speedup()));
    t.add_row(std::move(row));
  }
  emit("Extra (paper 6): per-application gap analysis", t, "extra_gap", opt);
}

/// Paper §10: polling instead of interrupts. Polling trades a fixed poll
/// latency for complete insensitivity to interrupt cost, giving "more
/// predictable and portable performance across architectures and operating
/// systems".
void polling_points(PointBuilder& b) {
  for (const auto& app : b.opt().app_names) {
    for (double v : {500.0, 2500.0, 5000.0}) {
      b.add(app, v, [v](SimConfig& c) { set_interrupt(c, v); });
    }
    for (double tick : {1000.0, 4000.0}) {
      b.add(app, tick, [tick](SimConfig& c) {
        c.comm.interrupt_scheme = InterruptScheme::kPolling;
        c.comm.poll_interval = static_cast<Cycles>(tick);
      });
    }
  }
}

void print_polling(Runs runs, const Options& opt) {
  emit("Extra (paper 10): interrupts vs polling",
       app_rows({"application", "intr cost=500", "intr cost=2500",
                 "intr cost=5000", "polling (1K tick)", "polling (4K tick)"},
                runs, opt, speedup_cell),
       "extra_polling", opt);
}

/// Paper §7: where the parallel execution time goes for each application,
/// at the achievable and the best configurations — the per-application cut
/// behind the paper's conclusions about which parameter limits which
/// program.
std::vector<std::string> breakdown_row(const char* config, const AppRun& r) {
  const Breakdown agg = r.result.stats.aggregate();
  const auto pct = [&](TimeCat c) {
    if (r.failed()) return std::string(kFail);
    return fmt(100.0 * static_cast<double>(agg.get(c)) /
                   static_cast<double>(agg.total()),
               1) +
           "%";
  };
  return {r.app,
          config,
          pct(TimeCat::kCompute),
          pct(TimeCat::kMemStall),
          pct(TimeCat::kDataWait),
          pct(TimeCat::kLockWait),
          pct(TimeCat::kBarrierWait),
          pct(TimeCat::kHandler),
          pct(TimeCat::kProtocol)};
}

void print_breakdowns(Runs runs, const Options& opt) {
  Table t({"application", "config", "compute", "mem", "data-wait", "lock",
           "barrier", "handler", "protocol"});
  for (std::size_t i = 0; i < opt.app_names.size(); ++i) {
    t.add_row(breakdown_row("achievable", runs[2 * i + 1]));
    t.add_row(breakdown_row("best", runs[2 * i]));
  }
  emit("Extra (paper 7): execution-time breakdowns", t, "extra_breakdowns",
       opt);
}

/// Paper §10: "Multiple network interfaces per node is another approach
/// that can increase the available bandwidth." NI count at the achievable
/// I/O bandwidth and at a starved one.
const std::vector<double> kNicBandwidths{0.5, 0.125};
const std::vector<double> kNics{1, 2, 4};

void multi_nic_points(PointBuilder& b) {
  for (double bw : kNicBandwidths) {
    b.sweep(kNics, [bw](SimConfig& c, double nics) {
      c.comm.io_bus_mb_per_mhz = bw;
      c.comm.nics_per_node = static_cast<int>(nics);
    });
  }
}

void print_multi_nic(Runs runs, const Options& opt) {
  const std::size_t n = opt.app_names.size() * kNics.size();
  for (std::size_t k = 0; k < kNicBandwidths.size(); ++k) {
    const double bw = kNicBandwidths[k];
    emit("Extra (paper 10): NIs per node at " + fmt(bw, 3) + " MB/MHz",
         app_rows({"application", "1 NI", "2 NIs", "4 NIs"},
                  runs.subspan(k * n, n), opt, speedup_cell),
         bw == 0.5 ? "extra_multi_nic_ach" : "extra_multi_nic_low", opt);
  }
}

std::vector<Figure> make_figures() {
  const auto suite = [](PointBuilder& b) {
    for (const auto& app : b.opt().app_names) b.add(app, 0);
  };
  const auto clusterings = [](PointBuilder& b) {
    b.sweep(kClusterings, set_ppn);
  };
  return {
      {"table1_params", nullptr, print_table1},
      {"fig01_speedups", suite, print_fig01},
      {"table2_events", clusterings, print_table2},
      {"fig03_messages", clusterings, print_fig03},
      {"fig04_mbytes", clusterings, print_fig04},
      // Figure 5: effects of host overhead on application performance.
      sweep_figure("fig05_host_overhead", {"fig05", "overhead",
                                           {0, 250, 500, 1000, 2000},
                                           set_overhead, nullptr}),
      // Figure 6: slowdown due to host overhead against messages sent.
      relation_figure(
          "fig06_overhead_vs_messages",
          {"fig06_sweep", "overhead", {0, 2000}, set_overhead, nullptr},
          {"fig06", "host-overhead slowdown", "messages/proc/Mcycle",
           [](const AppRun& r) {
             return r.result.per_proc_per_mcycles(
                 r.result.stats.counters().messages_sent);
           }}),
      // Figure 7: effects of NI occupancy on performance (HLRC).
      sweep_figure("fig07_ni_occupancy", {"fig07", "occupancy",
                                          {0, 250, 500, 1000, 2000, 4000},
                                          set_occupancy, nullptr}),
      // Figure 8: effects of I/O bus (node-to-network) bandwidth.
      sweep_figure("fig08_io_bandwidth", {"fig08", "MB/MHz",
                                          {2.0, 1.0, 0.5, 0.25, 0.125},
                                          set_io_bus, label3}),
      // Figure 9: slowdown due to I/O bus bandwidth against bytes sent.
      relation_figure(
          "fig09_bandwidth_vs_bytes",
          {"fig09_sweep", "MB/MHz", {2.0, 0.125}, set_io_bus, label3},
          {"fig09", "I/O-bandwidth slowdown", "bytes/proc/Mcycle",
           [](const AppRun& r) {
             return r.result.per_proc_per_mcycles(
                 r.result.stats.counters().bytes_sent);
           }}),
      // Figure 10: effects of interrupt cost (the paper's dominant
      // parameter).
      sweep_figure("fig10_interrupt_cost", {"fig10", "intr",
                                            {0, 250, 500, 1000, 2500, 5000},
                                            set_interrupt, nullptr}),
      // Figure 11: slowdown due to interrupt cost against page fetches plus
      // remote lock acquires.
      relation_figure(
          "fig11_interrupt_vs_fetches",
          {"fig11_sweep", "intr", {0, 5000}, set_interrupt, nullptr},
          {"fig11", "interrupt-cost slowdown",
           "fetches+remote-locks/proc/Mcycle",
           [](const AppRun& r) {
             const auto& c = r.result.stats.counters();
             return r.result.per_proc_per_mcycles(c.page_fetches +
                                                  c.remote_lock_acquires);
           }}),
      // Figure 12: NI occupancy under AURC (automatic update) — far more
      // sensitive than HLRC because updates travel as many fine-grained
      // packets.
      sweep_figure("fig12_aurc_occupancy",
                   {"fig12", "occupancy", {0, 250, 500, 1000, 2000, 4000},
                    [](SimConfig& c, double v) {
                      c.comm.protocol = Protocol::kAURC;
                      set_occupancy(c, v);
                    },
                    nullptr}),
      // Figure 13: effects of page size (the coherence/transfer
      // granularity).
      sweep_figure("fig13_page_size",
                   {"fig13", "page", {1024, 2048, 4096, 8192, 16384},
                    set_page,
                    [](double v) {
                      return std::to_string(static_cast<int>(v) / 1024) + "K";
                    }}),
      // Figure 14: degree of clustering — processors per node, 16 in total —
      // keeping the memory subsystem fixed (the paper's stated assumption).
      sweep_figure("fig14_clustering", {"fig14", "procs/node", {1, 2, 4, 8},
                                        set_ppn, nullptr}),
      {"table3_max_slowdowns", table3_points, print_table3},
      {"table4_speedups", best_and_achievable_points, print_table4},
      {"extra_interrupt_schemes", interrupt_scheme_points,
       print_interrupt_schemes},
      {"extra_gap_analysis", gap_points, print_gap},
      {"extra_polling", polling_points, print_polling},
      {"extra_breakdowns", best_and_achievable_points, print_breakdowns},
      {"extra_multi_nic", multi_nic_points, print_multi_nic},
  };
}

}  // namespace

const std::vector<Figure>& figures() {
  static const std::vector<Figure> all = make_figures();
  return all;
}

std::vector<const Figure*> select_figures(const std::vector<std::string>& names,
                                          const std::string& prog) {
  std::vector<const Figure*> out;
  if (names.empty()) {
    for (const Figure& f : figures()) out.push_back(&f);
  }
  for (const auto& name : names) {
    const auto it =
        std::find_if(figures().begin(), figures().end(),
                     [&](const Figure& f) { return f.name == name; });
    if (it == figures().end()) {
      std::fprintf(stderr, "%s: unknown figure '%s'; valid names:\n",
                   prog.c_str(), name.c_str());
      for (const Figure& f : figures()) {
        std::fprintf(stderr, "  %s\n", f.name.c_str());
      }
      std::exit(2);
    }
    out.push_back(&*it);
  }
  return out;
}

std::vector<harness::SweepPoint> figure_points(const Figure& figure,
                                               const Options& opt) {
  PointBuilder b(figure.name, opt);
  if (figure.points) figure.points(b);
  return b.take();
}

}  // namespace svmsim::bench

// The paper driver: prints the paper's tables and figures.
//
//   paper [name ...] [flags]
//
// Each name is one table or figure (fig05_host_overhead,
// table3_max_slowdowns, ...; an unknown name exits 2 and lists the valid
// ones). With no name, every one runs in paper order. Put the names before
// the flags: a word after the bare --check-consistency would be read as its
// value, which exits 2. The flags are the shared bench flags
// (bench_common.hpp).
//
// The points of every selected figure run as one batch on the --jobs pool,
// and each distinct (app, config) in it is simulated once. A point that
// fails prints as FAIL cells. After the tables, one stderr line gives the
// requested, distinct and failed point counts; the exit status is 1 if any
// point failed or the consistency checker found a violation.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <span>

#include "figures.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;
  const auto opt = bench::Options::parse(argc, argv);
  const auto selected =
      bench::select_figures(harness::Cli(argc, argv).positional(), opt.prog);

  std::vector<harness::SweepPoint> points;
  std::vector<std::size_t> begin;  // figure i owns [begin[i], begin[i + 1])
  for (const bench::Figure* f : selected) {
    begin.push_back(points.size());
    auto own = bench::figure_points(*f, opt);
    points.insert(points.end(), std::make_move_iterator(own.begin()),
                  std::make_move_iterator(own.end()));
  }
  begin.push_back(points.size());

  const std::vector<std::size_t> first = harness::first_equal(points);
  harness::Sweep sweep(opt.scale);
  const std::vector<harness::AppRun> runs =
      sweep.run_points(points, first, opt.pool());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    selected[i]->print(
        std::span(runs).subspan(begin[i], begin[i + 1] - begin[i]), opt);
  }

  std::size_t distinct = 0;
  std::size_t failed = 0;
  std::uint64_t violations = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (first[i] != i) continue;
    ++distinct;
    violations += runs[i].result.check_violations;
    if (runs[i].failed()) {
      ++failed;
      const auto owner = std::upper_bound(begin.begin(), begin.end(), i) - 1;
      std::fprintf(stderr, "%s: %s: %s at %s failed: %s\n", opt.prog.c_str(),
                   selected[owner - begin.begin()]->name.c_str(),
                   runs[i].app.c_str(), points[i].cfg.comm.describe().c_str(),
                   runs[i].error.c_str());
    }
  }
  if (violations > 0) {
    std::fprintf(stderr, "%s: consistency checker found %llu violation(s)\n",
                 opt.prog.c_str(), static_cast<unsigned long long>(violations));
  }
  std::fprintf(stderr, "%s: %zu points requested, %zu distinct, %zu failed\n",
               opt.prog.c_str(), points.size(), distinct, failed);
  return failed > 0 || violations > 0 ? 1 : 0;
}

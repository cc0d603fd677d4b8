// Harness utilities: CLI parsing, table/CSV formatting, and the sweep
// batch's de-duplication and failed-point semantics.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "harness/job_pool.hpp"

#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"

namespace svmsim::harness {
namespace {

AppRun run_with_speedup(Cycles uniprocessor, Cycles time) {
  AppRun r;
  r.uniprocessor = uniprocessor;
  r.result.time = time;
  return r;
}

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> out;
  for (auto& a : args) out.push_back(a.data());
  return out;
}

// ---- The permissive two-argument form (frozen perfbench/svmbench.cpp) ----

TEST(Cli, ParsesKeyEqualsValue) {
  std::vector<std::string> args{"prog", "--scale=large", "--csv=/tmp/x"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_or("scale", "?"), "large");
  EXPECT_EQ(cli.get_or("csv", "?"), "/tmp/x");
  EXPECT_FALSE(cli.get("missing").has_value());
}

TEST(Cli, ParsesKeySpaceValue) {
  std::vector<std::string> args{"prog", "--scale", "tiny"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_or("scale", "?"), "tiny");
}

TEST(Cli, BareFlagIsTruthy) {
  std::vector<std::string> args{"prog", "--verbose"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
}

TEST(Cli, PositionalArguments) {
  std::vector<std::string> args{"prog", "fft", "--scale=tiny", "extra"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "fft");
  EXPECT_EQ(cli.positional()[1], "extra");
}

TEST(Cli, NumericAccessors) {
  std::vector<std::string> args{"prog", "--n=42", "--x=2.5"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0), 2.5);
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, PermissiveFormTokenizesAsBefore) {
  // Any name, a bare flag swallowing the next word, the first of a repeated
  // flag winning, and numbers read as a prefix.
  std::vector<std::string> args{"prog",     "--check", "a.bin", "b.bin",
                                "--n=16x",  "--n=4",   "--x=2x",
                                "--last"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_or("check", "?"), "a.bin");
  EXPECT_EQ(cli.positional(), std::vector<std::string>{"b.bin"});
  EXPECT_EQ(cli.get_int("n", 0), 16);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0), 2.0);
  EXPECT_EQ(cli.get_or("last", "?"), "1");
}

// ---- The strict form: a declared flag table ----

constexpr std::pair<std::string_view, int> kColours[] = {{"red", 1},
                                                         {"blue", 2}};

constexpr Cli::Flag kFlags[] = {
    {"check", Cli::Kind::kBool},
    {"n", Cli::Kind::kInt, 1, 256},
    {"x", Cli::Kind::kDouble},
    {"name", Cli::Kind::kString},
    {"colour", Cli::Kind::kString},
};

Cli strict(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  auto argv = argv_of(args);
  return Cli(static_cast<int>(argv.size()), argv.data(), kFlags);
}

TEST(Cli, BoolFlagDoesNotTakeTheNextWord) {
  const Cli cli = strict({"--check", "a.bin", "b.bin"});
  EXPECT_TRUE(cli.has("check"));
  EXPECT_EQ(cli.positional(), (std::vector<std::string>{"a.bin", "b.bin"}));
}

TEST(Cli, SpaceAndEqualsFormsAgree) {
  for (const auto& args :
       {std::vector<std::string>{"--n", "16", "--x", "2.5", "--name", "f"},
        std::vector<std::string>{"--n=16", "--x=2.5", "--name=f"}}) {
    const Cli cli = strict(args);
    EXPECT_EQ(cli.get_int("n", 0), 16);
    EXPECT_DOUBLE_EQ(cli.get_double("x", 0), 2.5);
    EXPECT_EQ(cli.get_or("name", "?"), "f");
    EXPECT_TRUE(cli.positional().empty());
  }
}

TEST(Cli, EnumReadsItsSpellingTable) {
  EXPECT_EQ(strict({"--colour=blue"}).get_enum("colour", kColours, 0), 2);
  EXPECT_EQ(strict({}).get_enum("colour", kColours, 7), 7);
  EXPECT_EQ(spelling(kColours, 1), "red");
}

TEST(Cli, ReadingAnUndeclaredFlagThrows) {
  EXPECT_THROW((void)strict({}).get("scale"), std::logic_error);
}

TEST(CliDeathTest, UsageErrorsExitTwoNamingTheFlag) {
  EXPECT_EXIT(strict({"--bogus=1"}), ::testing::ExitedWithCode(2),
              "prog: unknown flag '--bogus'\nusage: prog \\[--check\\]");
  EXPECT_EXIT(strict({"--n=1", "--n=4"}), ::testing::ExitedWithCode(2),
              "repeated flag '--n'");
  EXPECT_EXIT(strict({"--n=16x"}), ::testing::ExitedWithCode(2),
              "--n value '16x' is not an integer");
  EXPECT_EXIT(strict({"--n", " 16"}), ::testing::ExitedWithCode(2),
              "--n value ' 16' is not an integer");
  EXPECT_EXIT(strict({"--n=257"}), ::testing::ExitedWithCode(2),
              "--n value '257' is outside \\[1, 256\\]");
  EXPECT_EXIT(strict({"--x=2x"}), ::testing::ExitedWithCode(2),
              "--x value '2x' is not a number");
  EXPECT_EXIT(strict({"--check=x"}), ::testing::ExitedWithCode(2),
              "--check takes no value, got 'x'");
  EXPECT_EXIT(strict({"--name"}), ::testing::ExitedWithCode(2),
              "--name needs a value");
  EXPECT_EXIT((void)strict({"--colour=green"}).get_enum("colour", kColours, 0),
              ::testing::ExitedWithCode(2),
              "unknown --colour value 'green' \\(expected red\\|blue\\)");
}

TEST(Table, AlignsColumns) {
  Table t({"a", "longheader"});
  t.add_row({"xxxx", "1"});
  const std::string s = t.to_string();
  // Header and row lines must have matching column starts.
  std::istringstream is(s);
  std::string header, rule, row;
  std::getline(is, header);
  std::getline(is, rule);
  std::getline(is, row);
  EXPECT_EQ(header.find("longheader"), row.find("1"));
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, CsvRoundTrip) {
  Table t({"app", "speedup"});
  t.add_row({"fft", "3.14"});
  t.add_row({"with,comma", "1"});
  const std::string path = "/tmp/svmsim_test_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string l0, l1, l2, l3;
  std::getline(in, l0);  // provenance comment row (see docs/tracing.md)
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l0.rfind("# build: svmsim ", 0), 0u) << l0;
  EXPECT_EQ(l1, "app,speedup");
  EXPECT_EQ(l2, "fft,3.14");
  EXPECT_EQ(l3, "\"with,comma\",1");
  std::remove(path.c_str());
}

TEST(MaxSlowdown, FirstVsLastPoint) {
  // Speedups 4.0 (first/fast endpoint) and 2.0 (last/slow): 100% slowdown.
  std::vector<AppRun> runs{run_with_speedup(400, 100),
                           run_with_speedup(400, 150),
                           run_with_speedup(400, 200)};
  EXPECT_DOUBLE_EQ(max_slowdown_pct(runs), 100.0);
}

TEST(MaxSlowdown, NegativeWhenLastPointIsFaster) {
  // Speedups 2.0 then 4.0: the "slowdown" is a 50% speedup.
  std::vector<AppRun> runs{run_with_speedup(400, 200),
                           run_with_speedup(400, 100)};
  EXPECT_DOUBLE_EQ(max_slowdown_pct(runs), -50.0);
}

TEST(MaxSlowdown, FewerThanTwoRunsIsZero) {
  EXPECT_DOUBLE_EQ(max_slowdown_pct({}), 0.0);
  std::vector<AppRun> one{run_with_speedup(400, 100)};
  EXPECT_DOUBLE_EQ(max_slowdown_pct(one), 0.0);
}

TEST(MaxSlowdown, InvalidFirstPointIsZeroNotMinus100) {
  // A zero/invalid first point used to slip past the guard (only the last
  // point was checked) and silently report -100%.
  std::vector<AppRun> runs{run_with_speedup(400, 0),
                           run_with_speedup(400, 100)};
  EXPECT_DOUBLE_EQ(max_slowdown_pct(runs), 0.0);
}

TEST(MaxSlowdown, InvalidLastPointIsZero) {
  std::vector<AppRun> runs{run_with_speedup(400, 100),
                           run_with_speedup(400, 0)};
  EXPECT_DOUBLE_EQ(max_slowdown_pct(runs), 0.0);
}

SimConfig with_overhead(Cycles overhead) {
  SimConfig cfg;
  cfg.comm = CommParams::achievable();
  cfg.comm.host_overhead = overhead;
  return cfg;
}

void expect_same_run(const AppRun& got, const AppRun& want) {
  EXPECT_FALSE(got.failed()) << got.error;
  EXPECT_EQ(got.app, want.app);
  EXPECT_EQ(got.uniprocessor, want.uniprocessor);
  EXPECT_EQ(got.result.time, want.result.time);
  EXPECT_EQ(got.result.events, want.result.events);
  EXPECT_TRUE(got.result.stats == want.result.stats);
  EXPECT_TRUE(got.result.stats.counters() == want.result.stats.counters());
}

TEST(RunPoints, DuplicatePointsShareOneRunAndKeepTheirParam) {
  const SimConfig a = with_overhead(500);
  const SimConfig b = with_overhead(2000);
  const std::vector<SweepPoint> batch{{"fft", a, 1.0}, {"fft", b, 2.0},
                                      {"fft", a, 3.0}};
  EXPECT_EQ(first_equal(batch), (std::vector<std::size_t>{0, 1, 0}));

  Sweep alone(apps::Scale::kTiny);
  const AppRun run_a = alone.run_point("fft", a, 0.0);
  const AppRun run_b = alone.run_point("fft", b, 0.0);
  JobPool pool(2);
  for (JobPool* p : {static_cast<JobPool*>(nullptr), &pool}) {
    Sweep sweep(apps::Scale::kTiny);
    const auto out = sweep.run_points(batch, p);
    ASSERT_EQ(out.size(), 3u);
    expect_same_run(out[0], run_a);
    expect_same_run(out[1], run_b);
    expect_same_run(out[2], run_a);
    EXPECT_EQ(out[0].param, 1.0);
    EXPECT_EQ(out[1].param, 2.0);
    EXPECT_EQ(out[2].param, 3.0);
  }
}

TEST(RunPoints, ThrowingPointBecomesAFailedSlot) {
  // ArchParams::validate() rejects a zero link bandwidth, so the Machine
  // constructor throws for this point; the batch must record that and still
  // run the points around it.
  SimConfig bad = with_overhead(500);
  bad.arch.link_bytes_per_cycle = 0;
  const std::vector<SweepPoint> batch{{"fft", with_overhead(500), 1.0},
                                      {"fft", bad, 2.0},
                                      {"lu", with_overhead(500), 3.0}};
  Sweep alone(apps::Scale::kTiny);
  const AppRun fft = alone.run_point("fft", batch[0].cfg, 0.0);
  const AppRun lu = alone.run_point("lu", batch[2].cfg, 0.0);
  JobPool pool(2);
  for (JobPool* p : {static_cast<JobPool*>(nullptr), &pool}) {
    Sweep sweep(apps::Scale::kTiny);
    const auto out = sweep.run_points(batch, p);
    ASSERT_EQ(out.size(), 3u);
    expect_same_run(out[0], fft);
    expect_same_run(out[2], lu);
    EXPECT_TRUE(out[1].failed());
    EXPECT_NE(out[1].error.find("link_bytes_per_cycle"), std::string::npos)
        << out[1].error;
    EXPECT_EQ(out[1].app, "fft");
    EXPECT_EQ(out[1].param, 2.0);
  }
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace svmsim::harness

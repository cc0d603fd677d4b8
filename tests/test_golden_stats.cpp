// Golden-stats regression: one tiny deterministic run of every suite app
// under HLRC and under AURC at the paper's achievable point, serialized
// counter-for-counter and compared *exactly* against a checked-in JSON file.
// Each app's access pattern exercises the hit path differently, so every app
// is pinned, not just one. Any change to simulated time, event counts, the
// per-processor time breakdown or any protocol counter — intended or not —
// fails this test and forces the golden file to be regenerated consciously:
//
//   SVMSIM_GOLDEN_REGEN=1 ./tests/test_golden_stats
//
// rewrites tests/data/golden_stats.json in place (the build injects the
// source-tree path as SVMSIM_TEST_DATA_DIR).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/registry.hpp"
#include "common.hpp"

namespace svmsim::test {
namespace {

std::string golden_path() {
  return std::string(SVMSIM_TEST_DATA_DIR) + "/golden_stats.json";
}

void emit_run(std::ostream& os, const char* key, const RunResult& r) {
  const auto& k = r.stats.counters();
  os << "  \"" << key << "\": {\n";
  os << "    \"time\": " << r.time << ",\n";
  os << "    \"events\": " << r.events << ",\n";
  os << "    \"validated\": " << (r.validated ? "true" : "false") << ",\n";
  os << "    \"counters\": {\n";
  os << "      \"page_faults\": " << k.page_faults << ",\n";
  os << "      \"read_faults\": " << k.read_faults << ",\n";
  os << "      \"write_faults\": " << k.write_faults << ",\n";
  os << "      \"page_fetches\": " << k.page_fetches << ",\n";
  os << "      \"local_lock_acquires\": " << k.local_lock_acquires << ",\n";
  os << "      \"remote_lock_acquires\": " << k.remote_lock_acquires << ",\n";
  os << "      \"barriers\": " << k.barriers << ",\n";
  os << "      \"messages_sent\": " << k.messages_sent << ",\n";
  os << "      \"packets_sent\": " << k.packets_sent << ",\n";
  os << "      \"bytes_sent\": " << k.bytes_sent << ",\n";
  os << "      \"interrupts\": " << k.interrupts << ",\n";
  os << "      \"polled_requests\": " << k.polled_requests << ",\n";
  os << "      \"twins_created\": " << k.twins_created << ",\n";
  os << "      \"diffs_created\": " << k.diffs_created << ",\n";
  os << "      \"diff_bytes\": " << k.diff_bytes << ",\n";
  os << "      \"write_notices\": " << k.write_notices << ",\n";
  os << "      \"invalidations\": " << k.invalidations << ",\n";
  os << "      \"updates_sent\": " << k.updates_sent << ",\n";
  os << "      \"update_bytes\": " << k.update_bytes << ",\n";
  os << "      \"ni_queue_overflows\": " << k.ni_queue_overflows << "\n";
  os << "    },\n";
  os << "    \"proc_breakdown\": [";
  for (int p = 0; p < r.stats.procs(); ++p) {
    os << (p == 0 ? "" : ",") << "\n      [";
    for (int c = 0; c < kTimeCats; ++c) {
      os << (c == 0 ? "" : ", ")
         << r.stats.proc(p).t[static_cast<std::size_t>(c)];
    }
    os << "]";
  }
  os << "\n    ]\n";
  os << "  }";
}

/// The reference runs, serialized deterministically. Keep this format
/// stable: the test compares the whole string byte-for-byte.
std::string golden_string() {
  std::ostringstream os;
  os << "{\n";
  bool first = true;
  for (const std::string& name : apps::suite()) {
    for (Protocol proto : {Protocol::kHLRC, Protocol::kAURC}) {
      SimConfig cfg = config_with(16, 4, proto);
      auto app = apps::make_app(name, apps::Scale::kTiny);
      const RunResult r = run(*app, cfg);
      EXPECT_TRUE(r.validated) << name;
      if (!first) os << ",\n";
      first = false;
      const std::string key =
          name + (proto == Protocol::kHLRC ? "_tiny_hlrc" : "_tiny_aurc");
      emit_run(os, key.c_str(), r);
    }
  }
  os << "\n}\n";
  return os.str();
}

TEST(GoldenStats, ReferenceRunsMatchCheckedInCounters) {
  const std::string got = golden_string();

  if (std::getenv("SVMSIM_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << got;
    out.close();
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing " << golden_path()
      << " — run with SVMSIM_GOLDEN_REGEN=1 to create it";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "simulation observables changed; if intended, regenerate with "
         "SVMSIM_GOLDEN_REGEN=1 ./tests/test_golden_stats";
}

}  // namespace
}  // namespace svmsim::test

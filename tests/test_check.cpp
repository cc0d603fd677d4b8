// The consistency checker, checked: unit tests for every oracle rule on a
// standalone shadow, plus end-to-end mutation smoke — each fault-injection
// class (SVMSIM_CHECK_MUTATION) plants a real protocol bug and the checker
// must catch it, while clean runs must stay violation-free. Also the
// regression tests for the lock-id cap (Machine::kMaxLocks) documented in
// apps/app.hpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/registry.hpp"
#include "check/checker.hpp"
#include "common.hpp"
#include "svm/address_space.hpp"
#include "svm/vclock.hpp"

namespace svmsim::test {
namespace {

using apps::Distribution;
using apps::SharedArray;
using apps::Shm;
using check::Checker;
using check::Kind;
using check::Mutation;
using check::PageEvent;
using svm::AddressSpace;
using svm::PageState;
using svm::VClock;

// ---------------------------------------------------------------------------
// Mutation selection plumbing
// ---------------------------------------------------------------------------

TEST(CheckConfig, ParseMutationRoundTrips) {
  using check::parse_mutation;
  EXPECT_EQ(parse_mutation(""), Mutation::kNone);
  EXPECT_EQ(parse_mutation("none"), Mutation::kNone);
  EXPECT_EQ(parse_mutation("stale_read"), Mutation::kStaleRead);
  EXPECT_EQ(parse_mutation("lost_diff"), Mutation::kLostDiff);
  EXPECT_EQ(parse_mutation("skipped_notice"), Mutation::kSkippedNotice);
  EXPECT_EQ(parse_mutation("reorder_sensitive_notice"),
            Mutation::kReorderSensitiveNotice);
  EXPECT_FALSE(parse_mutation("bogus").has_value());
  for (Mutation m : {Mutation::kNone, Mutation::kStaleRead, Mutation::kLostDiff,
                     Mutation::kSkippedNotice,
                     Mutation::kReorderSensitiveNotice}) {
    EXPECT_EQ(parse_mutation(check::to_string(m)), m);
  }
}

// ---------------------------------------------------------------------------
// Oracle unit tests on a standalone shadow (no simulation)
// ---------------------------------------------------------------------------

class CheckerOracle : public ::testing::Test {
 protected:
  CheckerOracle() : space_(4, 1024), ck_(check::Config{true, ""}, space_) {
    space_.alloc(4096, Distribution::block());  // pages 0..3, homes 0..3
  }

  [[nodiscard]] bool has(Kind k) const {
    for (const auto& v : ck_.violations()) {
      if (v.kind == k) return true;
    }
    return false;
  }

  AddressSpace space_;
  Checker ck_;
};

TEST_F(CheckerOracle, InitWritesVisibleEverywhere) {
  const std::uint32_t init = 0xabcd1234;
  ck_.on_debug_write(0, &init, sizeof(init));
  VClock vc(4);  // all-zero: no interval of anyone is covered
  ck_.on_read(10, 3, vc, 0, reinterpret_cast<const std::byte*>(&init),
              sizeof(init));
  EXPECT_TRUE(ck_.clean());
  EXPECT_EQ(ck_.checked_words(), 1u);
}

TEST_F(CheckerOracle, StaleReadCaughtWhenHappensBeforeOrdered) {
  const std::uint32_t fresh = 7, stale = 0;
  VClock w(4);
  ck_.on_write(5, 0, w, 0, reinterpret_cast<const std::byte*>(&fresh),
               sizeof(fresh));
  // Node 0 closes the interval; node 1 acquires it (covers {0:1}).
  ck_.on_flush_cut(0);
  VClock w1(4);
  w1.advance(0);
  ck_.on_vclock(6, 0, w1);
  VClock r(4);
  r.merge(w1);
  ck_.on_read(10, 1, r, 0, reinterpret_cast<const std::byte*>(&stale),
              sizeof(stale));
  EXPECT_EQ(ck_.violation_count(), 1u);
  EXPECT_TRUE(has(Kind::kStaleRead));
}

TEST_F(CheckerOracle, RacyReadSkippedNotJudged) {
  const std::uint32_t fresh = 7, stale = 0;
  VClock w(4);
  ck_.on_write(5, 0, w, 0, reinterpret_cast<const std::byte*>(&fresh),
               sizeof(fresh));
  // Node 1 reads without synchronizing: any value is admissible.
  VClock r(4);
  ck_.on_read(10, 1, r, 0, reinterpret_cast<const std::byte*>(&stale),
              sizeof(stale));
  EXPECT_TRUE(ck_.clean());
  EXPECT_GT(ck_.racy_words_skipped(), 0u);
}

TEST_F(CheckerOracle, ConflictingUnorderedWritesAreRacy) {
  const std::uint32_t a = 1, b = 2;
  VClock w0(4), w1(4);
  ck_.on_write(5, 0, w0, 0, reinterpret_cast<const std::byte*>(&a), sizeof(a));
  ck_.on_write(6, 1, w1, 0, reinterpret_cast<const std::byte*>(&b), sizeof(b));
  EXPECT_TRUE(has(Kind::kRacyWrite));
}

// A flush cut lists the interval's dirty pages; a page of that list is
// writable without a fault until the flush demotes it, so such a write
// travels with the closing interval (its diff, or the home copy itself).
TEST_F(CheckerOracle, WriteToCutPageBeforeDemoteJoinsClosingInterval) {
  const std::uint32_t a = 1, b = 2;
  const svm::PageId cut[] = {0};
  ck_.on_flush_cut(0, cut);
  VClock w0(4);  // mid-flush: the own component has not advanced yet
  ck_.on_write(5, 0, w0, 0, reinterpret_cast<const std::byte*>(&a), sizeof(a));
  ck_.on_page_state(6, 0, 0, PageState::kReadWrite, PageState::kReadOnly,
                    PageEvent::kFlushDemote);
  VClock w1(4);
  w1.advance(0);  // the flush closes interval 1
  ck_.on_vclock(7, 0, w1);
  // Node 1 acquires interval 1: the write is ordered before it.
  VClock r(4);
  r.merge(w1);
  ck_.on_read(8, 1, r, 0, reinterpret_cast<const std::byte*>(&a), sizeof(a));
  ck_.on_write(9, 1, r, 0, reinterpret_cast<const std::byte*>(&b), sizeof(b));
  EXPECT_TRUE(ck_.clean());
  EXPECT_EQ(ck_.checked_words(), 1u);
  EXPECT_EQ(ck_.racy_words_skipped(), 0u);
}

TEST_F(CheckerOracle, WriteToCutPageAfterDemoteBelongsToNextInterval) {
  const std::uint32_t a = 1, b = 2;
  const svm::PageId cut[] = {0};
  ck_.on_flush_cut(0, cut);
  ck_.on_page_state(5, 0, 0, PageState::kReadWrite, PageState::kReadOnly,
                    PageEvent::kFlushDemote);
  // The demoted page faults on the next write, which opens interval 2.
  ck_.on_page_state(6, 0, 0, PageState::kReadOnly, PageState::kReadWrite,
                    PageEvent::kArmWrite);
  VClock w0(4);
  ck_.on_write(7, 0, w0, 0, reinterpret_cast<const std::byte*>(&a), sizeof(a));
  VClock w1(4);
  w1.advance(0);
  ck_.on_vclock(8, 0, w1);
  // Covering interval 1 is not enough to order after that write.
  VClock r(4);
  r.merge(w1);
  ck_.on_write(9, 1, r, 0, reinterpret_cast<const std::byte*>(&b), sizeof(b));
  EXPECT_TRUE(has(Kind::kRacyWrite));
}

TEST_F(CheckerOracle, IllegalPageTransitionFlagged) {
  // invalid -> read-write without a fetch is never a legal edge.
  ck_.on_page_state(5, 1, 0, PageState::kInvalid, PageState::kReadWrite,
                    PageEvent::kArmWrite);
  EXPECT_TRUE(has(Kind::kBadTransition));
}

TEST_F(CheckerOracle, LegalEdgesStayClean) {
  ck_.on_page_state(1, 1, 0, PageState::kUnmapped, PageState::kReadOnly,
                    PageEvent::kFetchInstall);
  ck_.on_page_state(2, 1, 0, PageState::kReadOnly, PageState::kReadWrite,
                    PageEvent::kArmWrite);
  ck_.on_page_state(3, 1, 0, PageState::kReadWrite, PageState::kReadOnly,
                    PageEvent::kFlushDemote);
  ck_.on_page_state(4, 1, 0, PageState::kReadOnly, PageState::kInvalid,
                    PageEvent::kInvalidate);
  EXPECT_TRUE(ck_.clean());
  EXPECT_EQ(ck_.transitions(), 4u);
}

TEST_F(CheckerOracle, WriteNoticeResurrectionCaught) {
  // A fetch in flight when a write notice lands must install invalid.
  ck_.on_fetch_issue(1, 0);
  ck_.on_inval_notice(1, 0);
  ck_.on_page_state(9, 1, 0, PageState::kUnmapped, PageState::kReadOnly,
                    PageEvent::kFetchInstall);
  EXPECT_TRUE(has(Kind::kResurrection));
}

TEST_F(CheckerOracle, RacedFetchInstallingInvalidIsFine) {
  ck_.on_fetch_issue(1, 0);
  ck_.on_inval_notice(1, 0);
  ck_.on_page_state(9, 1, 0, PageState::kUnmapped, PageState::kInvalid,
                    PageEvent::kFetchInstallStale);
  EXPECT_TRUE(ck_.clean());
}

TEST_F(CheckerOracle, LockAcquireMustCoverLastRelease) {
  VClock rel(4);
  rel.advance(0);
  rel.advance(0);
  ck_.on_lock_release(5, 0, 17, rel);
  VClock acq(4);  // does not cover node 0's two intervals
  ck_.on_lock_acquired(9, 1, 17, acq);
  EXPECT_TRUE(has(Kind::kLockHandoff));
}

TEST_F(CheckerOracle, CoveringLockAcquireIsClean) {
  VClock rel(4);
  rel.advance(0);
  ck_.on_lock_release(5, 0, 17, rel);
  VClock acq(4);
  acq.merge(rel);
  ck_.on_lock_acquired(9, 1, 17, acq);
  EXPECT_TRUE(ck_.clean());
}

TEST_F(CheckerOracle, BarrierExitMustCoverFullRendezvous) {
  AddressSpace space(2, 1024);
  space.alloc(1024, Distribution::block());
  Checker ck(check::Config{true, ""}, space);
  VClock a(2), b(2);
  a.advance(0);
  b.advance(1);
  ck.on_barrier_flush(5, 0, a);
  ck.on_barrier_flush(6, 1, b);
  // Node 0 leaves with only its own clock: it never saw node 1's interval.
  ck.on_barrier_exit(9, 0, a);
  EXPECT_EQ(ck.violation_count(), 1u);
  VClock full(2);
  full.merge(a);
  full.merge(b);
  ck.on_barrier_exit(10, 1, full);
  EXPECT_EQ(ck.violation_count(), 1u);  // covering exit adds nothing
}

TEST_F(CheckerOracle, ReacquireMustCoverLatestReleaseNotJustAnEarlierOne) {
  // Two releases of the same lock by different nodes: the second acquire
  // covering only the *first* release is still a broken handoff — the
  // oracle tracks the latest release, not any release.
  VClock rel0(4);
  rel0.advance(0);
  ck_.on_lock_release(5, 0, 17, rel0);
  VClock rel1(4);
  rel1.merge(rel0);
  rel1.advance(1);
  ck_.on_lock_release(8, 1, 17, rel1);
  VClock acq(4);
  acq.merge(rel0);  // sees node 0's interval, misses node 1's
  ck_.on_lock_acquired(12, 2, 17, acq);
  EXPECT_TRUE(has(Kind::kLockHandoff));
}

TEST_F(CheckerOracle, DistinctLocksHaveIndependentHandoffChains) {
  VClock rel(4);
  rel.advance(0);
  ck_.on_lock_release(5, 0, 17, rel);
  // Acquiring a *different* lock with an empty clock is fine: lock 21 has
  // no prior release, and lock 17's chain is untouched.
  VClock acq(4);
  ck_.on_lock_acquired(9, 1, 21, acq);
  EXPECT_TRUE(ck_.clean());
  // A covering acquire of 17 after the interleaved 21 traffic stays clean.
  VClock acq17(4);
  acq17.merge(rel);
  ck_.on_lock_acquired(11, 2, 17, acq17);
  EXPECT_TRUE(ck_.clean());
}

TEST_F(CheckerOracle, BarrierEarlyExitBeforeFullRendezvousCaught) {
  AddressSpace space(2, 1024);
  space.alloc(1024, Distribution::block());
  Checker ck(check::Config{true, ""}, space);
  VClock a(2);
  a.advance(0);
  ck.on_barrier_flush(5, 0, a);
  // Node 0 exits while node 1 has not even arrived: a rendezvous that
  // never happened, regardless of what the exit clock claims to cover.
  ck.on_barrier_exit(6, 0, a);
  EXPECT_EQ(ck.violation_count(), 1u);
}

TEST_F(CheckerOracle, BackToBackEpochsKeepSeparateRendezvousClocks) {
  AddressSpace space(2, 1024);
  space.alloc(1024, Distribution::block());
  Checker ck(check::Config{true, ""}, space);
  // Epoch 0: full rendezvous, both exits covering — clean, epoch retired.
  VClock a(2), b(2);
  a.advance(0);
  b.advance(1);
  ck.on_barrier_flush(5, 0, a);
  ck.on_barrier_flush(6, 1, b);
  VClock full(2);
  full.merge(a);
  full.merge(b);
  ck.on_barrier_exit(9, 0, full);
  ck.on_barrier_exit(9, 1, full);
  EXPECT_EQ(ck.violation_count(), 0u);
  // Epoch 1 immediately after: exiting with only epoch-0 coverage must be
  // flagged — the new intervals cut at the second flush are missing.
  VClock a2(2), b2(2);
  a2.merge(full);
  a2.advance(0);
  b2.merge(full);
  b2.advance(1);
  ck.on_barrier_flush(12, 0, a2);
  ck.on_barrier_flush(13, 1, b2);
  ck.on_barrier_exit(15, 0, full);  // stale: covers epoch 0, not epoch 1
  EXPECT_EQ(ck.violation_count(), 1u);
  VClock full2(2);
  full2.merge(a2);
  full2.merge(b2);
  ck.on_barrier_exit(16, 1, full2);
  EXPECT_EQ(ck.violation_count(), 1u);
}

TEST_F(CheckerOracle, NodeClockAccessorTracksLatestAcceptedClock) {
  // The explorer's happens-before pruner reads per-node clocks through
  // node_clock(); they must reflect the latest clock the checker accepted.
  EXPECT_EQ(ck_.node_clock(2), VClock(4));
  ck_.on_flush_cut(2);  // open interval 2: own component 1 is now closed
  VClock vc(4);
  vc.advance(2);
  ck_.on_vclock(5, 2, vc);
  EXPECT_TRUE(ck_.clean());
  EXPECT_EQ(ck_.node_clock(2), vc);
  EXPECT_EQ(ck_.node_clock(1), VClock(4));
}

TEST_F(CheckerOracle, ClockMayNotRunAheadOfTheFlushCut) {
  VClock vc(4);
  vc.advance(2);  // claims a closed interval the checker never saw cut
  ck_.on_vclock(5, 2, vc);
  EXPECT_TRUE(has(Kind::kClockRegression));
}

TEST_F(CheckerOracle, DiffLifecycleImbalanceCaught) {
  ck_.on_diff_create(0, 1);
  ck_.on_diff_apply(5, 0, 1);
  ck_.on_diff_apply(6, 0, 1);  // applied twice, created once
  EXPECT_TRUE(has(Kind::kDiffUnmatched));
}

TEST_F(CheckerOracle, LostDiffAndUpdateCaughtAtFinalize) {
  ck_.on_diff_create(0, 1);
  ck_.on_update_emit(1, 2);
  ck_.finalize(100);
  EXPECT_TRUE(has(Kind::kDiffLost));
  EXPECT_TRUE(has(Kind::kUpdateLost));
  const std::uint64_t n = ck_.violation_count();
  ck_.finalize(100);  // idempotent
  EXPECT_EQ(ck_.violation_count(), n);
}

// ---------------------------------------------------------------------------
// End-to-end: clean runs are violation-free, mutated runs are caught
// ---------------------------------------------------------------------------

/// Runs the stress-gen fuzz app under the checker with `mutation` injected
/// via the environment (how the ctest mutation matrix drives it too).
RunResult run_mutated(const char* mutation, Protocol proto) {
  if (mutation != nullptr) {
    ::setenv("SVMSIM_CHECK_MUTATION", mutation, 1);
  } else {
    ::unsetenv("SVMSIM_CHECK_MUTATION");
  }
  SimConfig cfg = config_with(16, 4, proto);
  cfg.check.enabled = true;
  auto app = apps::make_app("stress-gen@5", apps::Scale::kTiny);
  RunResult r = run(*app, cfg);
  ::unsetenv("SVMSIM_CHECK_MUTATION");
  return r;
}

struct MutationCase {
  const char* name;  // nullptr = clean control run
  Protocol proto;
};

class MutationSmoke : public ::testing::TestWithParam<MutationCase> {};

TEST_P(MutationSmoke, EveryFaultClassIsDetected) {
  const MutationCase mc = GetParam();
  const RunResult r = run_mutated(mc.name, mc.proto);
  if (mc.name == nullptr) {
    EXPECT_TRUE(r.validated);
    EXPECT_EQ(r.check_violations, 0u);
  } else {
    // The planted bug must be visible to the shadow oracle. (The host-side
    // tally may or may not also fail; the checker must not need it.)
    EXPECT_GT(r.check_violations, 0u)
        << "mutation " << mc.name << " slipped past the checker";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Classes, MutationSmoke,
    ::testing::Values(MutationCase{nullptr, Protocol::kHLRC},
                      MutationCase{nullptr, Protocol::kAURC},
                      MutationCase{"stale_read", Protocol::kHLRC},
                      MutationCase{"stale_read", Protocol::kAURC},
                      MutationCase{"lost_diff", Protocol::kHLRC},
                      MutationCase{"lost_diff", Protocol::kAURC},
                      MutationCase{"skipped_notice", Protocol::kHLRC},
                      MutationCase{"skipped_notice", Protocol::kAURC}),
    [](const ::testing::TestParamInfo<MutationCase>& info) {
      return std::string(info.param.name ? info.param.name : "clean") + "_" +
             to_string(info.param.proto);
    });

TEST(MutationSmoke, ViolationDumpsReplayableTrace) {
  ::setenv("SVMSIM_CHECK_MUTATION", "stale_read", 1);
  const std::string path =
      ::testing::TempDir() + "svmsim_violation.svmtrace";
  std::remove(path.c_str());
  SimConfig cfg = config_with(16, 4, Protocol::kHLRC);
  cfg.check.enabled = true;
  cfg.check.trace_path = path;
  cfg.trace.enabled = true;  // in-memory tracer (no trace.path)
  auto app = apps::make_app("stress-gen@5", apps::Scale::kTiny);
  const RunResult r = run(*app, cfg);
  ::unsetenv("SVMSIM_CHECK_MUTATION");
  EXPECT_GT(r.check_violations, 0u);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "no violation trace at " << path;
  std::fclose(f);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Lock-id cap (Machine::kMaxLocks) regression tests
// ---------------------------------------------------------------------------

/// A two-processor tally where each processor guards the shared slot with
/// its own lock id; exact iff both ids map to the same lock.
RunResult run_lock_tally(int id_a, int id_b, bool& exact) {
  SimConfig cfg = config_with(2, 1, Protocol::kHLRC);
  cfg.check.enabled = true;
  SharedArray<long long> slot;
  LambdaWorkload w(
      "lock-alias",
      [&](Machine& m) {
        slot = SharedArray<long long>::alloc(m, 1, Distribution::block());
        slot.debug_put(m, 0, 0LL);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const int id = pid == 0 ? id_a : id_b;
        for (int k = 0; k < 24; ++k) {
          co_await shm.lock(id);
          const long long v = co_await slot.get(shm, 0);
          co_await slot.put(shm, 0, v + 1);
          co_await shm.unlock(id);
        }
        co_await shm.barrier();
      },
      [&](Machine& m) {
        exact = slot.debug_get(m, 0) == 48;
        return true;
      });
  return run(w, cfg);
}

TEST(LockAliasing, InRangeIdsAcrossTheFullCapWork) {
  bool exact = false;
  const RunResult r = run_lock_tally(0, 0, exact);
  EXPECT_TRUE(exact);
  EXPECT_EQ(r.check_violations, 0u);
  const RunResult r2 = run_lock_tally(Machine::kMaxLocks - 1,
                                      Machine::kMaxLocks - 1, exact);
  EXPECT_TRUE(exact);
  EXPECT_EQ(r2.check_violations, 0u);
}

TEST(LockAliasing, OutOfRangeIdAssertsInDebugAndAliasesCoherentlyInRelease) {
  // Debug builds refuse out-of-range ids outright (see apps/app.hpp). In
  // release builds the id wraps modulo Machine::kMaxLocks, which aliases
  // distinct ids onto one lock — over-serialized but still coherent, so the
  // tally below stays exact and the checker stays quiet.
  EXPECT_DEBUG_DEATH(
      {
        bool exact = false;
        const RunResult r =
            run_lock_tally(7, Machine::kMaxLocks + 7, exact);
        EXPECT_TRUE(exact);
        EXPECT_EQ(r.check_violations, 0u);
      },
      "lock id out of range");
}

}  // namespace
}  // namespace svmsim::test

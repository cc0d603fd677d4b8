// End-to-end SVM protocol tests: coherence through barriers and locks, for
// both HLRC and AURC, across node configurations. These run real data
// through the full machine (caches, NIC, protocol agents).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "trace/trace.hpp"

namespace svmsim::test {
namespace {

using apps::Distribution;
using apps::SharedArray;
using apps::Shm;

struct ProtoParam {
  Protocol proto;
  int total;
  int ppn;
};

class ProtocolMatrix : public ::testing::TestWithParam<ProtoParam> {};

/// Every processor writes a slice, barrier, everyone verifies all slices.
TEST_P(ProtocolMatrix, BarrierPublishesWrites) {
  auto [proto, total, ppn] = GetParam();
  SimConfig cfg = config_with(total, ppn, proto);
  constexpr int kN = 512;
  SharedArray<double> arr;
  bool ok = true;

  LambdaWorkload w(
      "barrier-publish",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, kN, Distribution::block());
        for (int i = 0; i < kN; ++i) arr.debug_put(m, i, -1.0);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const int P = shm.nprocs();
        for (int it = 0; it < 3; ++it) {
          for (int i = pid * kN / P; i < (pid + 1) * kN / P; ++i) {
            co_await arr.put(shm, i, it * 1e4 + i);
          }
          co_await shm.barrier();
          for (int i = 0; i < kN; ++i) {
            const double v = co_await arr.get(shm, i);
            if (v != it * 1e4 + i) ok = false;
          }
          co_await shm.barrier();
        }
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(r.validated);
}

/// Lock-protected read-modify-write chains must never lose an update
/// (integer-exact; this was the reproducer for two protocol races).
TEST_P(ProtocolMatrix, LockedAccumulationIsExact) {
  auto [proto, total, ppn] = GetParam();
  SimConfig cfg = config_with(total, ppn, proto);
  constexpr int kSlots = 64;
  SharedArray<long long> acc;

  LambdaWorkload w(
      "locked-accumulate",
      [&](Machine& m) {
        acc = SharedArray<long long>::alloc(m, kSlots, Distribution::block());
        for (int i = 0; i < kSlots; ++i) acc.debug_put(m, i, 0LL);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const int P = shm.nprocs();
        for (int it = 0; it < 2; ++it) {
          for (int k = 0; k < P; ++k) {
            const int target = (pid + k) % P;
            co_await shm.lock(100 + target);
            for (int i = target * kSlots / P; i < (target + 1) * kSlots / P;
                 ++i) {
              const long long v = co_await acc.get(shm, i);
              co_await acc.put(shm, i, v + 1 + pid);
            }
            co_await shm.unlock(100 + target);
          }
          co_await shm.barrier();
        }
      },
      [&](Machine& m) {
        long long want = 0;
        for (int p = 0; p < total; ++p) want += 1 + p;
        want *= 2;
        for (int i = 0; i < kSlots; ++i) {
          if (acc.debug_get(m, i) != want) return false;
        }
        return true;
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(r.validated);
}

/// Producer/consumer through a lock: release-acquire must order the data.
TEST_P(ProtocolMatrix, LockReleaseOrdersData) {
  auto [proto, total, ppn] = GetParam();
  if (total < 2) GTEST_SKIP();
  SimConfig cfg = config_with(total, ppn, proto);
  SharedArray<int> data;
  SharedArray<int> flag;
  bool ok = true;

  LambdaWorkload w(
      "producer-consumer",
      [&](Machine& m) {
        data = SharedArray<int>::alloc(m, 256, Distribution::fixed(0));
        flag = SharedArray<int>::alloc(m, 1, Distribution::fixed(0));
        for (int i = 0; i < 256; ++i) data.debug_put(m, i, 0);
        flag.debug_put(m, 0, 0);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const int rounds = 6;
        if (pid == 0) {
          for (int r = 1; r <= rounds; ++r) {
            for (int i = 0; i < 256; ++i) co_await data.put(shm, i, r * 1000 + i);
            co_await shm.lock(5);
            co_await flag.put(shm, 0, r);
            co_await shm.unlock(5);
          }
        } else if (pid == shm.nprocs() - 1) {
          int seen = 0;
          while (seen < rounds) {
            co_await shm.lock(5);
            const int f = co_await flag.get(shm, 0);
            if (f > seen) {
              seen = f;
              // All of round f's data must be visible under the lock chain.
              for (int i = 0; i < 256; ++i) {
                const int v = co_await data.get(shm, i);
                if (v < seen * 1000 + i) ok = false;
              }
            }
            co_await shm.unlock(5);
            shm.compute(3000);
          }
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(r.validated);
}

/// False sharing: concurrent writers to disjoint words of the same page.
TEST_P(ProtocolMatrix, FalseSharingMergesAtHome) {
  auto [proto, total, ppn] = GetParam();
  SimConfig cfg = config_with(total, ppn, proto);
  constexpr int kWords = 1000;  // ~one page of ints
  SharedArray<int> arr;

  LambdaWorkload w(
      "false-sharing",
      [&](Machine& m) {
        arr = SharedArray<int>::alloc(m, kWords, Distribution::fixed(0));
        for (int i = 0; i < kWords; ++i) arr.debug_put(m, i, -1);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const int P = shm.nprocs();
        // Interleaved ownership: adjacent words belong to different procs.
        for (int i = pid; i < kWords; i += P) {
          co_await arr.put(shm, i, pid * 100000 + i);
        }
        co_await shm.barrier();
      },
      [&](Machine& m) {
        for (int i = 0; i < kWords; ++i) {
          if (arr.debug_get(m, i) != (i % total) * 100000 + i) return false;
        }
        return true;
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(r.validated);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ProtocolMatrix,
    ::testing::Values(ProtoParam{Protocol::kHLRC, 2, 1},
                      ProtoParam{Protocol::kHLRC, 4, 2},
                      ProtoParam{Protocol::kHLRC, 8, 4},
                      ProtoParam{Protocol::kHLRC, 16, 4},
                      ProtoParam{Protocol::kHLRC, 16, 8},
                      ProtoParam{Protocol::kAURC, 2, 1},
                      ProtoParam{Protocol::kAURC, 4, 2},
                      ProtoParam{Protocol::kAURC, 16, 4}),
    [](const ::testing::TestParamInfo<ProtoParam>& info) {
      return to_string(info.param.proto) + "_" +
             std::to_string(info.param.total) + "p" +
             std::to_string(info.param.ppn);
    });

TEST(Protocol, SingleWriterPagesNeedNoDiffs) {
  // Block-distributed data written only by its owner: HLRC needs no twins
  // for home pages (the paper's "regular application" property).
  SimConfig cfg = config_with(4, 1);
  SharedArray<double> arr;
  LambdaWorkload w(
      "single-writer",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 2048, Distribution::block());
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const int P = shm.nprocs();
        for (int i = pid * 2048 / P; i < (pid + 1) * 2048 / P; ++i) {
          co_await arr.put(shm, i, i);
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_EQ(r.stats.counters().twins_created, 0u);
  EXPECT_EQ(r.stats.counters().diffs_created, 0u);
}

TEST(Protocol, RemoteWriterCreatesTwinAndDiff) {
  SimConfig cfg = config_with(2, 1);
  SharedArray<double> arr;
  LambdaWorkload w(
      "remote-writer",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 64, Distribution::fixed(0));
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        if (pid == 1) {
          for (int i = 0; i < 64; ++i) co_await arr.put(shm, i, i);
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_EQ(r.stats.counters().twins_created, 1u);
  EXPECT_EQ(r.stats.counters().diffs_created, 1u);
  EXPECT_GT(r.stats.counters().diff_bytes, 64u * 8u);
}

TEST(Protocol, AurcSendsUpdatesInsteadOfDiffs) {
  SimConfig cfg = config_with(2, 1, Protocol::kAURC);
  SharedArray<double> arr;
  LambdaWorkload w(
      "aurc-updates",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 64, Distribution::fixed(0));
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        if (pid == 1) {
          for (int i = 0; i < 64; ++i) co_await arr.put(shm, i, i);
        }
        co_await shm.barrier();
      },
      [&](Machine& m) {
        for (int i = 0; i < 64; ++i) {
          if (arr.debug_get(m, i) != i) return false;
        }
        return true;
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(r.validated);
  EXPECT_EQ(r.stats.counters().diffs_created, 0u);
  EXPECT_GT(r.stats.counters().updates_sent, 0u);
  EXPECT_GE(r.stats.counters().update_bytes, 64u * 8u);
}

TEST(Protocol, AurcCoalescesSequentialWrites) {
  // 64 sequential 8-byte writes coalesce into one update run.
  SimConfig cfg = config_with(2, 1, Protocol::kAURC);
  SharedArray<double> arr;
  LambdaWorkload w(
      "aurc-coalesce",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 64, Distribution::fixed(0));
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        if (pid == 1) {
          std::vector<double> buf(64);
          for (int i = 0; i < 64; ++i) buf[static_cast<std::size_t>(i)] = i;
          co_await arr.put_block(shm, 0, buf.data(), 64);
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_EQ(r.stats.counters().updates_sent, 1u);
}

TEST(Protocol, AurcScatteredWritesProduceManyUpdates) {
  SimConfig cfg = config_with(2, 1, Protocol::kAURC);
  SharedArray<double> arr;
  LambdaWorkload w(
      "aurc-scatter",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 512, Distribution::fixed(0));
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        if (pid == 1) {
          for (int i = 0; i < 512; i += 16) {  // strided: no coalescing
            co_await arr.put(shm, i, i);
          }
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_GE(r.stats.counters().updates_sent, 30u);
}

TEST(Protocol, DisableRemoteFetchesSkipsMessages) {
  SimConfig cfg = config_with(4, 2);
  cfg.disable_remote_fetches = true;
  SharedArray<double> arr;
  bool ok = true;
  LambdaWorkload w(
      "no-remote-fetch",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 512, Distribution::fixed(0));
        for (int i = 0; i < 512; ++i) arr.debug_put(m, i, 3.5 * i);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        for (int i = 0; i < 512; ++i) {
          if (co_await arr.get(shm, i) != 3.5 * i) ok = false;
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(ok);
  EXPECT_GT(r.stats.counters().page_fetches, 0u);
  // Fetches are satisfied locally: no page request/reply traffic beyond
  // barrier messages.
  EXPECT_LE(r.stats.counters().messages_sent, 16u);
}

/// A page named by several intervals of several writers costs one write
/// notice per interval but is invalidated once; invalidations go in
/// ascending page order whatever order the intervals name the pages in.
TEST(Protocol, PageInManyIntervalsIsInvalidatedOnce) {
  SimConfig cfg = config_with(4, 1);
  const std::string path = "test_protocol_notices.trace";
  cfg.trace.enabled = true;
  cfg.trace.path = path;
  SharedArray<double> arr;
  std::uint64_t per_page = 0;
  std::uint64_t page_a = 0;
  std::uint64_t page_b = 0;
  LambdaWorkload w(
      "notice-dedup",
      [&](Machine& m) {
        per_page = m.space().page_bytes() / sizeof(double);
        arr = SharedArray<double>::alloc(m, 2 * per_page,
                                         Distribution::fixed(0));
        page_a = m.space().page_of(arr.addr(0));
        page_b = m.space().page_of(arr.addr(per_page));
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const std::uint64_t a = 0;
        const std::uint64_t b = per_page;
        if (pid == 3) {  // read copies of both pages, invalidated below
          (void)co_await arr.get(shm, a);
          (void)co_await arr.get(shm, b);
        }
        co_await shm.barrier();
        if (pid == 1) {  // two intervals: {B}, then {A}
          co_await shm.lock(7);
          co_await arr.put(shm, b, 1.0);
          co_await shm.unlock(7);
          co_await shm.lock(7);
          co_await arr.put(shm, a, 1.0);
          co_await shm.unlock(7);
        } else if (pid == 2) {  // one interval: {A, B}
          co_await shm.lock(7);
          co_await arr.put(shm, a + 1, 2.0);
          co_await arr.put(shm, b + 1, 2.0);
          co_await shm.unlock(7);
        }
        co_await shm.barrier();
      });
  const RunResult r = run(w, cfg);
  EXPECT_TRUE(r.validated);
  const trace::TraceFile f = trace::read_file(path);
  std::remove(path.c_str());
  ASSERT_NE(page_a, page_b);

  // Node 3 acquires nothing but the last barrier, whose release names all
  // four notices.
  std::vector<std::uint64_t> invalidated;
  std::vector<std::uint64_t> notices;
  for (const trace::Record& rec : f.records) {
    if (rec.node != 3) continue;
    const auto ev = static_cast<trace::Event>(rec.event);
    if (ev == trace::Event::kPageInval) invalidated.push_back(rec.a0);
    if (ev == trace::Event::kWriteNotices) notices.push_back(rec.a0);
  }
  EXPECT_EQ(invalidated, (std::vector<std::uint64_t>{page_a, page_b}));
  EXPECT_EQ(notices, (std::vector<std::uint64_t>{4}));
}

// ---- The synchronous hit path (Shm::read/write, SvmAgent::advance) ----

/// Time charged to each category between two snapshots of a Breakdown.
Breakdown charged_since(const Breakdown& before, const Breakdown& after) {
  Breakdown d;
  for (std::size_t i = 0; i < d.t.size(); ++i) {
    d.t[i] = after.t[i] - before.t[i];
  }
  return d;
}

TEST(HitPath, CachedReadFiresNoEventAndChargesTheHit) {
  SimConfig cfg = config_with(1, 1);
  SharedArray<double> arr;
  bool ran = false;
  LambdaWorkload w(
      "cached-read",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 8, Distribution::fixed(0));
        arr.debug_put(m, 3, 2.5);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        Processor& p = shm.proc();
        EXPECT_EQ(co_await arr.get(shm, 3), 2.5);  // maps the page, fills
        const std::uint64_t events = m.sim().queue().events_fired();
        const Cycles now = m.sim().now();
        const Cycles local = p.local_now();
        const Breakdown before = p.breakdown();
        EXPECT_EQ(co_await arr.get(shm, 3), 2.5);
        EXPECT_EQ(m.sim().queue().events_fired(), events);
        EXPECT_EQ(m.sim().now(), now);
        // An L1 hit: one compute cycle on the local clock, no stall.
        Breakdown want;
        want.add(TimeCat::kCompute, cfg.arch.l1.hit_cycles);
        EXPECT_EQ(charged_since(before, p.breakdown()), want);
        EXPECT_EQ(p.local_now(), local + cfg.arch.l1.hit_cycles);
        ran = true;
      });
  run(w, cfg);
  EXPECT_TRUE(ran);
}

TEST(HitPath, MissResumesAtTheMissedLine) {
  struct Pair {
    double lo;
    double hi;
  };
  SimConfig cfg = config_with(1, 1);
  const std::uint32_t lb = cfg.arch.l1.line_bytes;
  SharedArray<double> arr;
  bool ran = false;
  LambdaWorkload w(
      "straddling-read",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 2 * lb / sizeof(double),
                                         Distribution::fixed(0));
        arr.debug_put(m, lb / sizeof(double) - 1, 1.0);  // last of line 0
        arr.debug_put(m, lb / sizeof(double), 2.0);      // first of line 1
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        Processor& p = shm.proc();
        co_await arr.get(shm, 0);  // line 0 now cached
        const memsys::Cache& l1 = p.mem().l1();
        const std::uint64_t hits = l1.hits();
        const std::uint64_t misses = l1.misses();
        const Cycles now = m.sim().now();
        const Breakdown before = p.breakdown();
        // 8 bytes in line 0 (hit) and 8 in line 1 (miss).
        const Pair v =
            co_await shm.read<Pair>(arr.addr(lb / sizeof(double) - 1));
        EXPECT_EQ(v.lo, 1.0);
        EXPECT_EQ(v.hi, 2.0);
        EXPECT_EQ(l1.hits() - hits, 1u);
        EXPECT_EQ(l1.misses() - misses, 1u);
        EXPECT_GT(m.sim().now(), now);  // stalled on the bus for line 1
        const Breakdown d = charged_since(before, p.breakdown());
        EXPECT_EQ(d.get(TimeCat::kCompute), 2u);  // one probe per line
        EXPECT_GT(d.get(TimeCat::kMemStall), 0u);
        ran = true;
      });
  run(w, cfg);
  EXPECT_TRUE(ran);
}

TEST(HitPath, WriteToReadOnlyPageTakesTheWriteFault) {
  SimConfig cfg = config_with(2, 1);
  SharedArray<double> arr;
  LambdaWorkload w(
      "write-protect-fault",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 8, Distribution::fixed(0));
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        if (pid == 1) {
          co_await arr.get(shm, 0);  // fetch: the page is now read-only
          const Counters& k = m.stats().counters();
          const std::uint64_t twins = k.twins_created;
          const std::uint64_t faults = k.write_faults;
          co_await arr.put(shm, 0, 7.0);
          EXPECT_EQ(k.twins_created, twins + 1);
          EXPECT_EQ(k.write_faults, faults + 1);
          // The page is read-write now: the next store is a hit.
          const std::uint64_t events = m.sim().queue().events_fired();
          co_await arr.put(shm, 1, 8.0);
          EXPECT_EQ(k.twins_created, twins + 1);
          EXPECT_EQ(k.write_faults, faults + 1);
          EXPECT_EQ(m.sim().queue().events_fired(), events);
        }
        co_await shm.barrier();
      },
      [&](Machine& m) {
        return arr.debug_get(m, 0) == 7.0 && arr.debug_get(m, 1) == 8.0;
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(r.validated);
  EXPECT_EQ(r.stats.counters().twins_created, 1u);
}

}  // namespace
}  // namespace svmsim::test

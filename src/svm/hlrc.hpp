// SVM protocol agents.
//
// SvmAgent is the per-node protocol engine: it implements the application-
// facing shared-memory operations (read/write/lock/unlock/barrier), the
// page-fault path, LRC invalidations, the node-caching token locks and the
// hierarchical barrier. The two concrete protocols of the paper specialize
// write propagation:
//
//  * HlrcAgent — home-based lazy release consistency: a twin is created at
//    the first write fault; at release, word-granularity diffs are computed
//    and flushed to each page's home, which applies them (paper's HLRC).
//  * AurcAgent (aurc.hpp) — automatic update release consistency: writes to
//    remotely-homed pages are snooped and streamed to the home as automatic
//    updates; no twins or diffs (paper's AURC).
//
// Consistency model: intervals are per-node (the node is the coherence
// agent; processors inside an SMP node share pages through hardware), with
// vector timestamps, eager home updates at releases, and invalidation at
// acquires via write notices. Lock requests and grants and barrier arrivals
// and releases carry the sender's whole clock as an immutable pooled body
// (docs/scaling.md §2); the notices themselves are read from the shared
// PageDirectory, and only their count is sized onto the wire.
//
// Hot-path structure (PR 2): protocol episodes recycle pooled Triggers with
// generation counters instead of allocating shared_ptr<Trigger> per miss;
// in-flight fetch/flush triggers live in dense per-page slot vectors; lock
// proxies are indexed by lock id; message bodies come from the per-machine
// ProtocolPools; and every per-release scratch container is a reused member.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/params.hpp"
#include "core/processor.hpp"
#include "core/stats.hpp"
#include "engine/ring_queue.hpp"
#include "engine/simulator.hpp"
#include "engine/task.hpp"
#include "net/messaging.hpp"
#include "net/nic.hpp"
#include "svm/address_space.hpp"
#include "svm/barrier_manager.hpp"
#include "svm/diff.hpp"
#include "svm/lock_manager.hpp"
#include "svm/page_directory.hpp"
#include "svm/pools.hpp"
#include "svm/vclock.hpp"

namespace svmsim::svm {

/// Protocol state shared across all nodes of one machine (interval history,
/// lock homes, barrier rendezvous): the simulator shortcuts of DESIGN.md.
/// Object pools are not here; they live in svm/pools.hpp.
struct SharedState {
  SharedState(engine::Simulator& sim, int nodes, int max_locks)
      : dir(nodes), locks(nodes, max_locks), hub(sim, nodes) {}

  PageDirectory dir;
  LockDirectory locks;
  BarrierHub hub;
};

class SvmAgent {
 public:
  SvmAgent(engine::Simulator& sim, const SimConfig& cfg, NodeId self,
           int procs_on_node, AddressSpace& space, SharedState& shared,
           ProtocolPools& pools, net::NodeComm& comm);
  virtual ~SvmAgent() = default;

  SvmAgent(const SvmAgent&) = delete;
  SvmAgent& operator=(const SvmAgent&) = delete;

  /// Wire this agent into its node's messaging layer. Called once by the
  /// Machine after construction.
  virtual void install();

  // ---- application-facing operations (called through apps::Shm) ----

  /// A read of `bytes` at `addr` into `dst` (nullptr: timing only), in
  /// progress. `addr`/`bytes`/`dst` cover what is not yet copied;
  /// [line, end_line) are the cache lines of the copied chunk not yet timed.
  struct ReadAccess {
    GlobalAddr addr;
    std::uint64_t bytes;
    std::byte* dst;
    std::uint64_t line = 0;
    std::uint64_t end_line = 0;
  };
  /// A write of `bytes` from `src` (nullptr: timing only) at `addr`, in
  /// progress; the fields cover what is not yet stored.
  struct WriteAccess {
    GlobalAddr addr;
    std::uint64_t bytes;
    const std::byte* src;
  };

  /// The hit path: perform `a` as far as it goes without simulated time
  /// passing — mapped pages, cache hits, stores into read-write pages —
  /// charging the processor's local clock. Returns true when the access is
  /// complete; false when it stopped at a page fault, a write to a page that
  /// is not read-write, or a read miss, which finish() resolves.
  bool advance(Processor& p, ReadAccess& a);
  bool advance(Processor& p, WriteAccess& a);
  /// The slow path: complete `a`, fresh or where advance() stopped, taking
  /// the faults and bus reads advance() cannot and running advance() for
  /// the rest. A fresh access first maps its first page, which costs only a
  /// frame when the page is already mapped.
  engine::Task<void> finish(Processor& p, ReadAccess a);
  engine::Task<void> finish(Processor& p, WriteAccess a);

  /// Block accesses (Shm::read_block/write_block) start on the slow path.
  engine::Task<void> read(Processor& p, GlobalAddr addr, void* dst,
                          std::uint64_t bytes) {
    return finish(p, ReadAccess{addr, bytes, static_cast<std::byte*>(dst)});
  }
  engine::Task<void> write(Processor& p, GlobalAddr addr, const void* src,
                           std::uint64_t bytes) {
    return finish(p,
                  WriteAccess{addr, bytes, static_cast<const std::byte*>(src)});
  }
  engine::Task<void> acquire_lock(Processor& p, int lock);
  engine::Task<void> release_lock(Processor& p, int lock);
  engine::Task<void> barrier(Processor& p);

  /// Set by the node: drops stale cached lines on all its processors.
  std::function<void(GlobalAddr, std::uint64_t)> invalidate_caches;

  [[nodiscard]] NodeId id() const noexcept { return self_; }
  [[nodiscard]] const VClock& vclock() const noexcept { return vc_; }

  /// Deadlock diagnostics: dump this node's lock-proxy state to stderr.
  void dump_lock_state() const;

 protected:
  struct LockProxy {
    bool init = false;            ///< token ownership has been initialized
    bool token = false;
    bool held = false;
    bool remote_pending = false;  ///< a remote acquire is in flight
    bool recall_pending = false;  ///< home wants the token back
    engine::RingQueue<engine::Trigger*> waiters;  // local processors queued
  };

  // Page access paths.
  engine::Task<PageCopy*> ensure_valid(Processor& p, PageId page,
                                       bool for_write);
  engine::Task<PageCopy*> readable(Processor& p, PageId page);
  engine::Task<PageCopy*> writable(Processor& p, PageId page);
  engine::Task<void> fetch_page(Processor& p, PageId page, PageCopy& c);
  void mark_dirty(PageId page, PageCopy& c);

  // Release-time propagation (protocol-specific).
  virtual engine::Task<void> arm_write(Processor& p, PageId page,
                                       PageCopy& c) = 0;
  virtual void on_store(Processor& p, PageId page, PageCopy& c,
                        std::uint32_t offset, std::uint32_t len) = 0;
  /// Propagate all dirty pages to their homes and close the interval.
  engine::Task<void> flush(Processor& p);
  virtual engine::Task<void> propagate_dirty(Processor& p,
                                             const std::vector<PageId>& pages) = 0;
  /// Flush one concurrently-dirty page before invalidating it.
  virtual engine::Task<void> flush_page_for_invalidation(Processor& p,
                                                         PageId page,
                                                         PageCopy& c) = 0;

  // Acquire-time invalidations.
  engine::Task<void> apply_invalidations(Processor& p, const VClock& target);

  // Incoming request handlers (interrupt context).
  engine::Task<void> handle_request(net::Message m);
  virtual void handle_direct(net::Message&& m);
  engine::Task<void> handle_page_request(net::Message m);
  engine::Task<void> handle_diff_batch(net::Message m);
  engine::Task<void> handle_lock_acquire(net::Message m);
  engine::Task<void> handle_lock_recall(net::Message m);
  engine::Task<void> handle_token_return(net::Message m);

  // Lock helpers.
  LockProxy& proxy(int lock);
  engine::Task<void> grant_lock(net::Message req);
  /// Return the token to the lock's home. `p` is the application processor
  /// when called from a release; nullptr when called from a handler.
  engine::Task<void> send_token_return(int lock, Processor* p);
  void wake_one_waiter(LockProxy& lp);

  // Helpers.
  [[nodiscard]] NodeId home_of(PageId page);
  [[nodiscard]] std::uint64_t vclock_wire_bytes() const {
    return 16 + 4 * static_cast<std::uint64_t>(space_->nodes());
  }
  /// Charge host overhead for posting a message from application context.
  void charge_send(Processor& p) {
    p.charge(TimeCat::kProtocol, cfg_->comm.host_overhead);
  }
  /// Index of `p` within this node (for per-processor scratch buffers).
  [[nodiscard]] int local_index(const Processor& p) const noexcept {
    return p.id() - self_ * procs_on_node_;
  }

  engine::Simulator* sim_;
  const SimConfig* cfg_;
  NodeId self_;
  int procs_on_node_;
  AddressSpace* space_;
  SharedState* shared_;
  ProtocolPools* pools_;
  net::NodeComm* comm_;

  VClock vc_;
  std::vector<PageId> dirty_pages_;     ///< need propagation at next flush
  std::vector<PageId> interval_pages_;  ///< all pages dirtied this interval
  // Scratch buffers swapped with the lists above at flush time (the lists
  // refill while the flush is in flight); storage ping-pongs between them.
  std::vector<PageId> propagating_;
  std::vector<PageId> interval_scratch_;
  bool node_flushing_ = false;          ///< a release flush is in progress
  /// Waiters hold a generation-stamped Episode across the flush completing
  /// under them; the flusher ends the episode with complete().
  engine::Trigger node_flush_done_;
  std::deque<LockProxy> lock_proxies_;  ///< by lock id; lazily grown
  // Per-page transient protocol state, kept as structure-of-arrays tables
  // sized once at install() (they grow lazily only if the app allocates
  // pages mid-run): the flush/fetch paths scan many pages per operation,
  // and striding through the fat PageCopy records for a one-word stamp or
  // trigger pointer wastes the whole cache line.
  /// Fault coalescing: in-flight fetches, one pooled trigger slot per page.
  /// Non-null iff a fetch for the page is in flight.
  std::vector<engine::Trigger*> pending_fetch_;
  /// In-flight release flushes, one pooled trigger slot per page; non-null
  /// iff a flush for the page is in flight. An invalidation of a page whose
  /// diff/updates are still in flight to the home must wait for the ack:
  /// refetching earlier could resurrect a home copy that misses this node's
  /// own flushed writes.
  std::vector<engine::Trigger*> pending_flush_;
  /// Pages whose flush triggers this propagate pass owns (scratch; the pass
  /// is serialized by node_flushing_).
  std::vector<PageId> flush_in_flight_;
  /// Stamp for deduplicating the dirty list within one propagate pass
  /// (compared against flush_epoch_of(page)).
  std::uint32_t flush_epoch_ = 0;
  /// Last propagate pass that visited each page (see flush_epoch_).
  std::vector<std::uint32_t> flush_epoch_by_page_;
  /// Per-local-processor invalidation scratch (apply_invalidations can run
  /// on several processors of the node concurrently).
  std::vector<std::vector<PageId>> inval_scratch_;
  /// Stamp for deduplicating the pages one apply_invalidations call
  /// collects (compared against notice_stamp_by_page_; the collection does
  /// not suspend, so concurrent calls never interleave in it).
  std::uint32_t notice_stamp_ = 0;
  /// Last apply_invalidations call that collected each page.
  std::vector<std::uint32_t> notice_stamp_by_page_;

  engine::Trigger*& fetch_slot(PageId page);
  engine::Trigger*& flush_slot(PageId page);
  std::uint32_t& flush_epoch_of(PageId page);
  void begin_page_flush(PageId page);
  void end_page_flush(PageId page);
  engine::Task<void> wait_page_flush(Processor& p, PageId page);

  // Hierarchical-barrier state (one episode at a time).
  int barrier_arrived_ = 0;
  engine::Trigger barrier_done_;
  engine::Trigger barrier_release_;
  net::Message barrier_release_msg_;
  std::vector<net::Message> barrier_arrivals_;  ///< manager scratch
  /// Manager state: the merge of the manager's clock and every arrival
  /// clock. It persists across episodes, which changes nothing: every clock
  /// feeding episode k covers episode k-1's merged clock (each rep merged it
  /// at the last release).
  VClock barrier_merged_;
};

class HlrcAgent final : public SvmAgent {
 public:
  using SvmAgent::SvmAgent;

  void install() override;  ///< chains SvmAgent; sizes the batch tables

 protected:
  engine::Task<void> arm_write(Processor& p, PageId page,
                               PageCopy& c) override;
  void on_store(Processor& p, PageId page, PageCopy& c, std::uint32_t offset,
                std::uint32_t len) override;
  engine::Task<void> propagate_dirty(Processor& p,
                                     const std::vector<PageId>& pages) override;
  engine::Task<void> flush_page_for_invalidation(Processor& p, PageId page,
                                                 PageCopy& c) override;

 private:
  /// Diff one dirty page against its twin into `out` (a pooled batch slot)
  /// and reset its write detection.
  void make_diff(Processor& p, PageId page, PageCopy& c, PageDiff& out);

  // Release-flush scratch, reused across flushes (serialized by
  // node_flushing_). batch_by_home_/batch_bytes_ are indexed by home node;
  // batch_homes_ keeps the deterministic (first-touch) emission order.
  std::vector<DiffBatchRef> batch_by_home_;
  std::vector<std::uint64_t> batch_bytes_;
  std::vector<NodeId> batch_homes_;
  std::vector<std::uint64_t> rpc_ids_;
};

}  // namespace svmsim::svm

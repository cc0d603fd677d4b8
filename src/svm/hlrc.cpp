#include "svm/hlrc.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "check/checker.hpp"
#include "trace/trace.hpp"

namespace svmsim::svm {

namespace {

using engine::Task;

/// Wire size of a page install/copy in handler time (paper §2 models page
/// copies as a per-KB software cost).
Cycles install_cycles(const ArchParams& arch, std::uint32_t page_bytes) {
  return arch.page_install_cycles_per_kb * ((page_bytes + 1023) / 1024);
}

}  // namespace

SvmAgent::SvmAgent(engine::Simulator& sim, const SimConfig& cfg, NodeId self,
                   int procs_on_node, AddressSpace& space, SharedState& shared,
                   ProtocolPools& pools, net::NodeComm& comm)
    : sim_(&sim),
      cfg_(&cfg),
      self_(self),
      procs_on_node_(procs_on_node),
      space_(&space),
      shared_(&shared),
      pools_(&pools),
      comm_(&comm),
      vc_(space.nodes()),
      node_flush_done_(sim),
      inval_scratch_(static_cast<std::size_t>(procs_on_node)),
      peers_(static_cast<std::size_t>(space.nodes())),
      barrier_done_(sim),
      barrier_release_(sim),
      barrier_merged_(space.nodes()) {}

void SvmAgent::install() {
  comm_->request_handler = [this](net::Message m) -> Task<void> {
    return handle_request(std::move(m));
  };
  comm_->direct_handler = [this](net::Message&& m) {
    handle_direct(std::move(m));
  };
  comm_->on_deliver = [this](net::Message& m) { expand_clock(m); };
  comm_->set_on_enqueue([this](net::Message& m) { encode_clock(m); });
  // Size the per-page SoA tables once for the pages allocated up front
  // (apps allocate before the run starts; the slot accessors still grow
  // lazily if one allocates mid-run).
  const auto pages = static_cast<std::size_t>(space_->page_count());
  pending_fetch_.resize(pages, nullptr);
  pending_flush_.resize(pages, nullptr);
  flush_epoch_by_page_.resize(pages, 0);
}

// ---------------------------------------------------------------------------
// Sparse clock transport (docs/scaling.md)
// ---------------------------------------------------------------------------

SvmAgent::PeerClocks& SvmAgent::peer(NodeId n) {
  std::unique_ptr<PeerClocks>& slot = peers_[static_cast<std::size_t>(n)];
  if (!slot) slot = std::make_unique<PeerClocks>(space_->nodes());
  return *slot;
}

void SvmAgent::encode_clock(net::Message& m) {
  VClock* last;
  switch (m.type) {
    case net::MsgType::kLockAcquire:
    case net::MsgType::kTokenReturn:
      last = &peer(m.dst).out_sync;
      break;
    case net::MsgType::kBarrierArrive:
      last = &peer(m.dst).out_barrier;
      break;
    default:
      return;
  }
  const VClock& sent = vclock_body(m.body);
  VClockDeltaRef d = pools_->clock_delta();
  // Entries are *differences*, not advances: two processors can construct
  // messages in one order and enqueue them in the other, so successive
  // clocks on an edge need not be monotone. Plain set() on both caches
  // keeps the receiver's mirror exact either way.
  if (!(sent == *last)) {  // summary + memcmp short-circuit
    const std::uint32_t* s = sent.data();
    const std::uint32_t* l = last->data();
    const int n = sent.size();
    for (int i = 0; i < n; ++i) {
      if (s[i] != l[i]) {
        d->entries.push_back({static_cast<NodeId>(i), s[i]});
        last->set(static_cast<NodeId>(i), s[i]);
      }
    }
  }
  if (sim_->checker() != nullptr) d->shadow = sent;
  m.body = std::move(d);  // drops the full-clock body reference
}

VClockDeltaRef SvmAgent::encode_reply_delta(const VClock& base,
                                            const VClock& target) {
  VClockDeltaRef d = pools_->clock_delta();
  const std::uint32_t* b = base.data();
  const std::uint32_t* t = target.data();
  const int n = base.size();
  for (int i = 0; i < n; ++i) {
    if (t[i] > b[i]) d->entries.push_back({static_cast<NodeId>(i), t[i]});
  }
  if (sim_->checker() != nullptr) {
    d->shadow = base;
    d->shadow.merge(target);
  }
  return d;
}

void SvmAgent::check_expansion(const VClockDeltaBody& d,
                               const VClock& got) const {
  if (d.shadow.size() == 0 || got == d.shadow) return;
  std::fprintf(stderr,
               "[svmsim] node %d: clock delta expansion mismatch\n"
               "  expanded %s\n  expected %s\n",
               self_, got.to_string().c_str(), d.shadow.to_string().c_str());
  std::abort();
}

void SvmAgent::expand_clock(net::Message& m) {
  switch (m.type) {
    case net::MsgType::kLockAcquire: {
      const VClockDeltaBody& d = vclock_delta_body(m.body);
      VClock& in = peer(m.src).in_sync;
      for (const VClockDeltaBody::Entry& e : d.entries) in.set(e.node, e.value);
      check_expansion(d, in);
      // The grant may be issued long after later traffic moves this edge
      // cache on; the request keeps its own copy of the expanded clock.
      m.body = pools_->vclock(in);
      break;
    }
    case net::MsgType::kTokenReturn: {
      const VClockDeltaBody& d = vclock_delta_body(m.body);
      VClock& in = peer(m.src).in_sync;
      for (const VClockDeltaBody::Entry& e : d.entries) in.set(e.node, e.value);
      check_expansion(d, in);
      break;  // the handler never reads the body; the delta recycles with it
    }
    case net::MsgType::kBarrierArrive: {
      const VClockDeltaBody& d = vclock_delta_body(m.body);
      VClock& in = peer(m.src).in_barrier;
      for (const VClockDeltaBody::Entry& e : d.entries) in.set(e.node, e.value);
      check_expansion(d, in);
      break;  // barrier() reads the delta entries for the incremental merge
    }
    case net::MsgType::kBarrierRelease: {
      const VClockDeltaBody& d = vclock_delta_body(m.body);
      assert(barrier_sent_ && "release without an outstanding arrival");
      VClock& vc = barrier_sent_->vc;
      for (const VClockDeltaBody::Entry& e : d.entries) vc.set(e.node, e.value);
      check_expansion(d, vc);
      m.body = std::move(barrier_sent_);
      break;
    }
    case net::MsgType::kLockGrant: {
      const VClockDeltaBody& d = vclock_delta_body(m.body);
      for (std::size_t i = 0; i < grant_bases_.size(); ++i) {
        if (grant_bases_[i].first != m.rpc_id) continue;
        VClockRef base = std::move(grant_bases_[i].second);
        grant_bases_[i] = std::move(grant_bases_.back());
        grant_bases_.pop_back();
        VClock& vc = base->vc;
        // Reply-relative entries always advance past the base (the home
        // computed them against this very clock).
        for (const VClockDeltaBody::Entry& e : d.entries) {
          vc.set(e.node, e.value);
        }
        check_expansion(d, vc);
        m.body = std::move(base);
        return;
      }
      assert(false && "lock grant with no registered request clock");
      break;
    }
    default:
      break;
  }
}

void SvmAgent::dump_lock_state() const {
  std::size_t fetches = 0, flushes = 0;
  for (auto* t : pending_fetch_) fetches += t != nullptr;
  for (auto* t : pending_flush_) flushes += t != nullptr;
  std::fprintf(stderr,
               "  node %d: barrier_arrived=%d/%d node_flushing=%d "
               "pending_fetch=%zu pending_flush=%zu vc=%s\n",
               self_, barrier_arrived_, procs_on_node_, (int)node_flushing_,
               fetches, flushes, vc_.to_string().c_str());
  for (std::size_t i = 0; i < lock_proxies_.size(); ++i) {
    const LockProxy& lp = lock_proxies_[i];
    if (!lp.init) continue;
    if (!lp.token && !lp.held && !lp.remote_pending && !lp.recall_pending &&
        lp.waiters.empty()) {
      continue;
    }
    const int lock = static_cast<int>(i);
    const LockHomeState& s = shared_->locks.state(lock);
    std::fprintf(stderr,
                 "  node %d lock %d: token=%d held=%d remote_pending=%d "
                 "recall_pending=%d local_waiters=%zu | home: owner=%d "
                 "recall_sent=%d queue=%zu\n",
                 self_, lock, (int)lp.token, (int)lp.held,
                 (int)lp.remote_pending, (int)lp.recall_pending,
                 lp.waiters.size(), s.owner, (int)s.recall_sent,
                 s.waiters.size());
  }
}

NodeId SvmAgent::home_of(PageId page) {
  const NodeId h = space_->home_of(page);
  return h >= 0 ? h : space_->assign_home(page, self_);
}

engine::Trigger*& SvmAgent::fetch_slot(PageId page) {
  if (pending_fetch_.size() <= page) {
    pending_fetch_.resize(
        std::max<std::size_t>(space_->page_count(), page + 1), nullptr);
  }
  return pending_fetch_[static_cast<std::size_t>(page)];
}

engine::Trigger*& SvmAgent::flush_slot(PageId page) {
  if (pending_flush_.size() <= page) {
    pending_flush_.resize(
        std::max<std::size_t>(space_->page_count(), page + 1), nullptr);
  }
  return pending_flush_[static_cast<std::size_t>(page)];
}

std::uint32_t& SvmAgent::flush_epoch_of(PageId page) {
  if (flush_epoch_by_page_.size() <= page) {
    flush_epoch_by_page_.resize(
        std::max<std::size_t>(space_->page_count(), page + 1), 0);
  }
  return flush_epoch_by_page_[static_cast<std::size_t>(page)];
}

// ---------------------------------------------------------------------------
// Page access
// ---------------------------------------------------------------------------

Task<PageCopy*> SvmAgent::ensure_valid(Processor& p, PageId page,
                                       bool for_write) {
  const NodeId h = home_of(page);
  PageCopy& c = space_->copy(self_, page);
  bool counted_fault = false;
  for (;;) {
    if (c.state == PageState::kReadOnly || c.state == PageState::kReadWrite) {
      co_return &c;
    }
    if (!counted_fault) {
      counted_fault = true;
      SVMSIM_PROBE(*sim_, kPageFault, p.id(), self_, page, for_write ? 1 : 0);
      p.charge(TimeCat::kProtocol,
               cfg_->arch.fault_trap_cycles + cfg_->arch.tlb_access_cycles);
    }
    if (c.state == PageState::kUnmapped && h == self_) {
      SVMSIM_CHECK_HOOK(*sim_, on_page_state, sim_->now(), self_, page,
                        c.state, PageState::kReadOnly,
                        check::PageEvent::kHomeMap);
      c.state = PageState::kReadOnly;  // home pages map without protocol
      co_return &c;
    }
    if (engine::Trigger* t = fetch_slot(page)) {
      // Another processor of this node already requested the page; wait for
      // its fetch instead of issuing a duplicate (fault coalescing). The
      // episode handle stays valid after the fetcher recycles the trigger.
      engine::Episode ep(*t);
      const Cycles t0 = co_await p.wait_begin();
      co_await ep.wait();
      p.wait_end(TimeCat::kDataWait, t0);
      continue;  // re-check the state (fetch may have raced an invalidation)
    }
    co_await fetch_page(p, page, c);
  }
}

Task<PageCopy*> SvmAgent::readable(Processor& p, PageId page) {
  return ensure_valid(p, page, /*for_write=*/false);
}

Task<PageCopy*> SvmAgent::writable(Processor& p, PageId page) {
  PageCopy& c = space_->copy(self_, page);
  if (c.state == PageState::kReadWrite) co_return &c;
  const bool was_valid = c.state == PageState::kReadOnly;
  PageCopy* vc = co_await ensure_valid(p, page, /*for_write=*/true);
  if (vc->state == PageState::kReadWrite) co_return vc;  // raced a co-writer
  if (was_valid) {
    // Pure write-protection fault on a valid page (write detection).
    SVMSIM_PROBE(*sim_, kPageFault, p.id(), self_, page, 1);
    p.charge(TimeCat::kProtocol,
             cfg_->arch.fault_trap_cycles + cfg_->arch.tlb_access_cycles);
  }
  co_await arm_write(p, page, *vc);  // twin (HLRC) / AU mapping (AURC)
  mark_dirty(page, *vc);
  SVMSIM_CHECK_HOOK(*sim_, on_page_state, sim_->now(), self_, page, vc->state,
                    PageState::kReadWrite, check::PageEvent::kArmWrite);
  vc->state = PageState::kReadWrite;
  co_return vc;
}

Task<void> SvmAgent::fetch_page(Processor& p, PageId page, PageCopy& c) {
  const NodeId h = home_of(page);
  const std::uint32_t pb = space_->page_bytes();
  SVMSIM_PROBE(*sim_, kPageFetch, p.id(), self_, page, h);

  if (cfg_->disable_remote_fetches) {
    // Guided simulation (paper §6): pretend the fetch is free/local.
    auto home = space_->home_data(page);
    std::memcpy(c.data.data(), home.data(), pb);
    if (invalidate_caches) invalidate_caches(page * pb, pb);
    SVMSIM_CHECK_HOOK(*sim_, on_page_state, sim_->now(), self_, page, c.state,
                      PageState::kReadOnly, check::PageEvent::kFetchInstall);
    c.state = PageState::kReadOnly;
    SVMSIM_PROBE(*sim_, kPageInstall, p.id(), self_, page, 1);
    co_return;
  }

  assert(fetch_slot(page) == nullptr && "duplicate fetch for a page");
  fetch_slot(page) = pools_->triggers.acquire();
  const std::uint32_t gen_at_start = c.inval_gen;
  SVMSIM_CHECK_HOOK(*sim_, on_fetch_issue, self_, page);

  net::Message m;
  m.type = net::MsgType::kPageRequest;
  m.dst = h;
  m.page = page;
  m.payload_bytes = 16;
  charge_send(p);
  co_await p.drain();
  const std::uint64_t id = comm_->rpc_post(m);
  co_await comm_->send(std::move(m));
  const Cycles t0 = sim_->now();
  net::Message rep = co_await comm_->await_reply(id);
  p.wait_end(TimeCat::kDataWait, t0);

  const std::vector<std::byte>& data = bytes_body(rep.body);
  assert(data.size() == pb);
  // Fault injection (kStaleRead): a refetch after an invalidation keeps the
  // stale bytes, as if the install wrote the wrong copy.
  if (!(SVMSIM_CHECK_MUTATION_IS(*sim_, kStaleRead) && c.inval_gen > 0)) {
    std::memcpy(c.data.data(), data.data(), pb);
  }
  p.charge(TimeCat::kProtocol, install_cycles(cfg_->arch, pb));
  if (invalidate_caches) invalidate_caches(page * pb, pb);
  SVMSIM_PROBE(*sim_, kPageInstall, p.id(), self_, page, 0);

  // If a write notice invalidated this page while the fetch was in flight,
  // the copy may already be stale: leave it invalid and let the access
  // retry; otherwise map it read-only.
  const PageState installed = c.inval_gen == gen_at_start
                                  ? PageState::kReadOnly
                                  : PageState::kInvalid;
  SVMSIM_CHECK_HOOK(*sim_, on_page_state, sim_->now(), self_, page, c.state,
                    installed,
                    installed == PageState::kReadOnly
                        ? check::PageEvent::kFetchInstall
                        : check::PageEvent::kFetchInstallStale);
  c.state = installed;
  engine::Trigger* t = fetch_slot(page);
  fetch_slot(page) = nullptr;
  t->complete();  // wakes coalesced waiters, invalidates their episodes
  pools_->triggers.release(t);
}

void SvmAgent::begin_page_flush(PageId page) {
  assert(flush_slot(page) == nullptr && "overlapping flushes of one page");
  flush_slot(page) = pools_->triggers.acquire();
}

void SvmAgent::end_page_flush(PageId page) {
  engine::Trigger* t = flush_slot(page);
  if (t == nullptr) return;
  flush_slot(page) = nullptr;
  t->complete();
  pools_->triggers.release(t);
}

engine::Task<void> SvmAgent::wait_page_flush(Processor& p, PageId page) {
  for (;;) {
    engine::Trigger* t = flush_slot(page);
    if (t == nullptr) co_return;
    engine::Episode ep(*t);
    const Cycles t0 = co_await p.wait_begin();
    co_await ep.wait();
    p.wait_end(TimeCat::kProtocol, t0);
  }
}

void SvmAgent::mark_dirty(PageId page, PageCopy& c) {
  if (c.dirty) return;
  c.dirty = true;
  dirty_pages_.push_back(page);
  interval_pages_.push_back(page);
}

bool SvmAgent::advance(Processor& p, ReadAccess& a) {
  const std::uint32_t pb = space_->page_bytes();
  const std::uint32_t ls = p.mem().line_shift();
  for (;;) {
    // Timing: one access per cache line of the copied chunk. A miss stops
    // at the missed line; finish() reads it over the bus and resumes after
    // it, so no line is probed twice.
    for (; a.line < a.end_line; ++a.line) {
      const auto hit = p.mem().read_line_fast(a.line << ls, p.local_now());
      p.charge(TimeCat::kCompute, 1);
      if (!hit) return false;
      if (*hit > 1) p.charge(TimeCat::kMemStall, *hit - 1);
    }
    if (a.bytes == 0) return true;
    const PageId page = space_->page_of(a.addr);
    (void)home_of(page);  // first touch assigns the home, as ensure_valid does
    const PageCopy& c = space_->copy(self_, page);
    if (c.state != PageState::kReadOnly && c.state != PageState::kReadWrite) {
      return false;  // page fault
    }
    const std::uint32_t off = space_->offset_of(a.addr);
    const std::uint64_t chunk = std::min<std::uint64_t>(a.bytes, pb - off);
    if (a.dst != nullptr) {
      std::memcpy(a.dst, c.data.data() + off, chunk);
      a.dst += chunk;
    }
    SVMSIM_CHECK_HOOK(*sim_, on_read, sim_->now(), self_, vc_, a.addr,
                      c.data.data() + off, chunk);
    a.line = a.addr >> ls;
    a.end_line = ((a.addr + chunk - 1) >> ls) + 1;
    a.addr += chunk;
    a.bytes -= chunk;
  }
}

Task<void> SvmAgent::finish(Processor& p, ReadAccess a) {
  // Resolve what stopped advance() — a missed line or an unmapped page; a
  // fresh access maps its first page — then go back to the hit path.
  do {
    if (a.line < a.end_line) {
      co_await p.drain();
      const Cycles stall =
          co_await p.mem().read_line_slow(a.line << p.mem().line_shift());
      p.note(TimeCat::kMemStall, stall);
      ++a.line;
    } else if (a.bytes > 0) {
      co_await readable(p, space_->page_of(a.addr));
    }
  } while (!advance(p, a));
}

bool SvmAgent::advance(Processor& p, WriteAccess& a) {
  const std::uint32_t pb = space_->page_bytes();
  const std::uint32_t ls = p.mem().line_shift();
  while (a.bytes > 0) {
    const PageId page = space_->page_of(a.addr);
    PageCopy& c = space_->copy(self_, page);
    if (c.state != PageState::kReadWrite) return false;  // write fault
    const std::uint32_t off = space_->offset_of(a.addr);
    const std::uint32_t chunk =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(a.bytes, pb - off));
    if (a.src != nullptr) {
      std::memcpy(c.data.data() + off, a.src, chunk);
      SVMSIM_CHECK_HOOK(*sim_, on_write, sim_->now(), self_, vc_, a.addr,
                        a.src, chunk);
      a.src += chunk;
    }
    on_store(p, page, c, off, chunk);
    const std::uint64_t first_line = a.addr >> ls;
    const std::uint64_t last_line = (a.addr + chunk - 1) >> ls;
    for (std::uint64_t ln = first_line; ln <= last_line; ++ln) {
      const auto cost = p.mem().write_line(ln << ls, p.local_now());
      p.charge(TimeCat::kCompute, cost.issue);
      if (cost.wb_stall > 0) p.charge(TimeCat::kWriteBufStall, cost.wb_stall);
    }
    a.addr += chunk;
    a.bytes -= chunk;
  }
  return true;
}

Task<void> SvmAgent::finish(Processor& p, WriteAccess a) {
  do {
    if (a.bytes > 0) co_await writable(p, space_->page_of(a.addr));
  } while (!advance(p, a));
}

// ---------------------------------------------------------------------------
// Release-time flush and acquire-time invalidation
// ---------------------------------------------------------------------------

Task<void> SvmAgent::flush(Processor& p) {
  // Serialize release flushes within the node: if another processor's flush
  // is in progress it may be carrying *our* critical-section writes, and a
  // release is only complete once those are at their homes and the interval
  // is recorded. Without this wait, a lock token could leave the node ahead
  // of the data it protects.
  while (node_flushing_) {
    // The episode stays answerable after the flusher complete()s under us.
    engine::Episode ep(node_flush_done_);
    const Cycles t0 = co_await p.wait_begin();
    co_await ep.wait();
    p.wait_end(TimeCat::kProtocol, t0);
  }
  if (interval_pages_.empty()) co_return;

  node_flushing_ = true;
  // Swap the live lists into scratch members: they refill while this flush
  // is in flight, and the storage ping-pongs between the pairs so the
  // steady state allocates nothing.
  propagating_.clear();
  propagating_.swap(dirty_pages_);
  interval_scratch_.clear();
  interval_scratch_.swap(interval_pages_);
  // The swap is the interval boundary: writes from here on refill the live
  // lists and belong to the *next* interval even though the vector clock
  // only advances after the propagation below completes.
  SVMSIM_CHECK_HOOK(*sim_, on_flush_cut, self_, propagating_);

  co_await propagate_dirty(p, propagating_);

  const std::uint32_t idx = vc_.advance(self_);
  SVMSIM_CHECK_HOOK(*sim_, on_vclock, sim_->now(), self_, vc_);
  shared_->dir.record_interval(self_, idx, interval_scratch_);

  node_flushing_ = false;
  node_flush_done_.complete();
}

Task<void> SvmAgent::apply_invalidations(Processor& p, const VClock& target) {
  if (vc_.covers(target)) co_return;

  std::vector<PageId>& pages = inval_scratch_[local_index(p)];
  pages.clear();
  const std::uint64_t notices = shared_->dir.collect_notices(
      vc_, target, [&](PageId page, NodeId writer) {
        if (writer != self_) pages.push_back(page);
      });
  if (notices > 0) {
    SVMSIM_PROBE(*sim_, kWriteNotices, p.id(), self_, notices, 0);
  }
  p.charge(TimeCat::kProtocol, notices * cfg_->arch.write_notice_cycles);

  // Deduplicate (a page can appear in many intervals); sorting also makes
  // the invalidation order independent of the interval log layout.
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

  // Fault injection (kSkippedNotice): silently forget one write notice, so
  // a stale copy survives the acquire.
  if (SVMSIM_CHECK_MUTATION_IS(*sim_, kSkippedNotice) && !pages.empty()) {
    pages.pop_back();
  }
  // Fault injection (kReorderSensitiveNotice): the same dropped notice, but
  // latent until some NI on this node has witnessed a same-cycle descending-
  // source arrival pair — a state only a reordered (explored) schedule can
  // reach, never the baseline wire-band order. See docs/exploration.md.
  if (SVMSIM_CHECK_MUTATION_IS(*sim_, kReorderSensitiveNotice) &&
      comm_->reorder_witnessed() && !pages.empty()) {
    pages.pop_back();
  }

  const std::uint32_t pb = space_->page_bytes();
  for (PageId page : pages) {
    if (home_of(page) == self_) continue;  // the home is always up to date
    if (!space_->has_copy(self_, page)) continue;
    PageCopy& c = space_->copy(self_, page);
    ++c.inval_gen;  // makes racing in-flight fetches install as invalid
    SVMSIM_CHECK_HOOK(*sim_, on_inval_notice, self_, page);
    // If this node's own diff/updates for the page are still in flight, a
    // refetch could miss them; wait for the home's ack first.
    co_await wait_page_flush(p, page);
    if (c.state == PageState::kUnmapped || c.state == PageState::kInvalid) {
      continue;
    }
    while (c.dirty) {
      // False sharing: we are mid-interval on this page; push our own
      // modifications home before dropping the copy. Writes can race the
      // flush (another processor of this node mid-critical-section), so
      // repeat until the page stays clean.
      co_await flush_page_for_invalidation(p, page, c);
    }
    SVMSIM_CHECK_HOOK(*sim_, on_page_state, sim_->now(), self_, page, c.state,
                      PageState::kInvalid, check::PageEvent::kInvalidate);
    c.state = PageState::kInvalid;
    c.twin.reset();
    c.au_active = false;
    SVMSIM_PROBE(*sim_, kPageInval, p.id(), self_, page, 0);
    p.charge(TimeCat::kProtocol, cfg_->arch.tlb_access_cycles);
    if (invalidate_caches) invalidate_caches(page * pb, pb);
  }
  vc_.merge(target);
  SVMSIM_CHECK_HOOK(*sim_, on_vclock, sim_->now(), self_, vc_);
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

SvmAgent::LockProxy& SvmAgent::proxy(int lock) {
  while (lock_proxies_.size() <= static_cast<std::size_t>(lock)) {
    lock_proxies_.emplace_back();
  }
  LockProxy& lp = lock_proxies_[static_cast<std::size_t>(lock)];
  if (!lp.init) {
    lp.init = true;
    // The home owns an untouched lock's token, so a non-home node starts
    // without it — decided from home_of alone, WITHOUT reading the home
    // state: `owner` belongs to the home's handlers, and a node that has
    // never touched this lock cannot be its owner anyway (a grant answers a
    // kLockAcquire, which this proxy init precedes).
    lp.token = shared_->locks.home_of(lock) == self_ &&
               shared_->locks.state(lock).owner == self_;
  }
  return lp;
}

void SvmAgent::wake_one_waiter(LockProxy& lp) {
  if (lp.waiters.empty()) return;
  engine::Trigger* t = lp.waiters.front();
  lp.waiters.pop_front();
  t->fire();
}

Task<void> SvmAgent::acquire_lock(Processor& p, int lock) {
  LockProxy& lp = proxy(lock);
  p.charge(TimeCat::kProtocol, cfg_->arch.smp_lock_cycles);

  for (;;) {
    if (!lp.held && !lp.remote_pending) {
      if (lp.token && !lp.recall_pending) {
        // Node holds the free token: hardware lock, no messages.
        lp.held = true;
        SVMSIM_PROBE(*sim_, kLockLocal, p.id(), self_, lock, 0);
        SVMSIM_CHECK_HOOK(*sim_, on_lock_acquired, sim_->now(), self_, lock,
                          vc_);
        co_return;
      }
      if (lp.token && lp.recall_pending) {
        // The home recalled the token while it sat here free: hand it back
        // first, then queue remotely like everyone else.
        lp.recall_pending = false;
        lp.token = false;
        co_await send_token_return(lock, &p);
      }
      // Fetch the token from the lock's home.
      lp.remote_pending = true;
      SVMSIM_PROBE(*sim_, kLockRequest, p.id(), self_, lock,
                   shared_->locks.home_of(lock));
      net::Message m;
      m.type = net::MsgType::kLockAcquire;
      m.dst = shared_->locks.home_of(lock);
      m.lock_id = lock;
      m.payload_bytes = vclock_wire_bytes();
      m.body = pools_->vclock(vc_);
      charge_send(p);
      co_await p.drain();
      const std::uint64_t id = comm_->rpc_post(m);
      // The grant comes back relative to this request's clock; keep a
      // reference so expand_clock can reconstruct the full grant clock.
      grant_bases_.push_back({id, std::get<VClockRef>(m.body)});
      co_await comm_->send(std::move(m));
      const Cycles t0 = sim_->now();
      net::Message grant = co_await comm_->await_reply(id);
      p.wait_end(TimeCat::kLockWait, t0);
      lp.remote_pending = false;
      lp.token = true;
      lp.held = true;
      co_await apply_invalidations(p, vclock_body(grant.body));
      SVMSIM_CHECK_HOOK(*sim_, on_lock_acquired, sim_->now(), self_, lock,
                        vc_);
      co_return;
    }
    // Queue behind local activity on this lock.
    engine::Trigger t(*sim_);
    lp.waiters.push_back(&t);
    const Cycles t0 = co_await p.wait_begin();
    co_await t.wait();
    p.wait_end(TimeCat::kLockWait, t0);
  }
}

Task<void> SvmAgent::release_lock(Processor& p, int lock) {
  // Release consistency: modifications must reach the homes before anyone
  // can acquire this lock and see the write notices.
  co_await flush(p);

  LockProxy& lp = proxy(lock);
  assert(lp.held && "release of a lock this node does not hold");
  shared_->locks.state(lock).vc = vc_;
  SVMSIM_CHECK_HOOK(*sim_, on_lock_release, sim_->now(), self_, lock, vc_);
  p.charge(TimeCat::kProtocol, cfg_->arch.smp_lock_cycles);
  lp.held = false;

  if (lp.recall_pending) {
    lp.recall_pending = false;
    lp.token = false;
    co_await send_token_return(lock, &p);
  }
  wake_one_waiter(lp);
}

Task<void> SvmAgent::send_token_return(int lock, Processor* p) {
  const NodeId home = shared_->locks.home_of(lock);
  SVMSIM_PROBE(*sim_, kTokenReturn, p != nullptr ? p->id() : -1, self_, lock,
               home);
  if (p != nullptr) {
    charge_send(*p);
    co_await p->drain();
  } else {
    co_await sim_->delay(cfg_->comm.host_overhead);
  }
  if (home == self_) {
    // Token is already at its home node: process the return locally.
    net::Message local;
    local.lock_id = lock;
    co_await handle_token_return(std::move(local));
    co_return;
  }
  net::Message m;
  m.type = net::MsgType::kTokenReturn;
  m.dst = home;
  m.lock_id = lock;
  m.payload_bytes = vclock_wire_bytes();
  m.body = pools_->vclock(vc_);
  co_await comm_->send(std::move(m));
}

// ---------------------------------------------------------------------------
// Barrier (hierarchical: hardware inside the node, messages across nodes)
// ---------------------------------------------------------------------------

Task<void> SvmAgent::barrier(Processor& p) {
  SVMSIM_PROBE(*sim_, kBarrierEnter, p.id(), self_, barrier_arrived_, 0);
  p.charge(TimeCat::kProtocol, cfg_->arch.smp_barrier_cycles);

  if (++barrier_arrived_ < procs_on_node_) {
    // The representative complete()s the episode, possibly while we are
    // still draining; the generation stamp keeps the wait answerable.
    engine::Episode ep(barrier_done_);
    const Cycles t0 = co_await p.wait_begin();
    co_await ep.wait();
    p.wait_end(TimeCat::kBarrierWait, t0);
    SVMSIM_PROBE(*sim_, kBarrierExit, p.id(), self_, 0, 0);
    co_return;
  }

  // Last arriver: node representative.
  barrier_arrived_ = 0;
  co_await flush(p);
  SVMSIM_CHECK_HOOK(*sim_, on_barrier_flush, sim_->now(), self_, vc_);

  if (self_ == shared_->hub.manager()) {
    const Cycles t0 = co_await p.wait_begin();
    co_await shared_->hub.collect(barrier_arrivals_);
    p.wait_end(TimeCat::kBarrierWait, t0);

    // Incremental reduction: merged_{k-1} survives from the last episode,
    // and every episode-k clock covers it (each representative applied
    // invalidations with merged_{k-1} before leaving episode k-1), so
    // folding in vc_ plus each arrival's *delta entries* reproduces the
    // full N-clock gather-merge byte for byte — in O(changes), not
    // O(nodes^2).
    barrier_merged_.merge(vc_);
    for (const auto& a : barrier_arrivals_) {
      const VClockDeltaBody& d = vclock_delta_body(a.body);
      for (const VClockDeltaBody::Entry& e : d.entries) {
        // Guarded: an edge-cache delta records any change vs the last
        // arrival, and a component can lag the running merge.
        if (e.value > barrier_merged_.get(e.node)) {
          barrier_merged_.set(e.node, e.value);
        }
      }
    }
    for (const auto& a : barrier_arrivals_) {
      // in_barrier mirrors a.src's arrival clock exactly and cannot move
      // until a.src re-arrives, which needs this very release first.
      const VClock& their_vc = peer(a.src).in_barrier;
      const std::uint64_t notices =
          shared_->dir.count_notices(their_vc, barrier_merged_);
      net::Message rel;
      rel.type = net::MsgType::kBarrierRelease;
      rel.dst = a.src;
      rel.payload_bytes = vclock_wire_bytes() + 8 * notices;
      rel.body = encode_reply_delta(their_vc, barrier_merged_);
      charge_send(p);
      co_await p.drain();
      co_await comm_->send(std::move(rel));
    }
    barrier_arrivals_.clear();  // drops the arrival bodies back to the pool
    co_await apply_invalidations(p, barrier_merged_);
    SVMSIM_CHECK_HOOK(*sim_, on_barrier_exit, sim_->now(), self_, vc_);
  } else {
    barrier_release_.reset();
    net::Message arr;
    arr.type = net::MsgType::kBarrierArrive;
    arr.dst = shared_->hub.manager();
    arr.payload_bytes = vclock_wire_bytes();
    // Keep a reference to the arrival clock: the release comes back as a
    // delta relative to it (expand_clock resolves it through barrier_sent_).
    barrier_sent_ = pools_->vclock(vc_);
    arr.body = barrier_sent_;
    charge_send(p);
    co_await p.drain();
    co_await comm_->send(std::move(arr));

    const Cycles t0 = co_await p.wait_begin();
    co_await barrier_release_.wait();
    p.wait_end(TimeCat::kBarrierWait, t0);
    co_await apply_invalidations(p,
                                 vclock_body(barrier_release_msg_.body));
    barrier_release_msg_.recycle();  // return the shared body reference
    SVMSIM_CHECK_HOOK(*sim_, on_barrier_exit, sim_->now(), self_, vc_);
  }

  // Release the node's processors into the next episode.
  SVMSIM_PROBE(*sim_, kBarrierExit, p.id(), self_, 1, 0);
  barrier_done_.complete();
}

// ---------------------------------------------------------------------------
// Incoming request handlers (interrupt context on a victim processor)
// ---------------------------------------------------------------------------

Task<void> SvmAgent::handle_request(net::Message m) {
  switch (m.type) {
    case net::MsgType::kPageRequest:
      co_await handle_page_request(std::move(m));
      break;
    case net::MsgType::kDiffBatch:
      co_await handle_diff_batch(std::move(m));
      break;
    case net::MsgType::kLockAcquire:
      co_await handle_lock_acquire(std::move(m));
      break;
    case net::MsgType::kLockRecall:
      co_await handle_lock_recall(std::move(m));
      break;
    case net::MsgType::kTokenReturn:
      co_await handle_token_return(std::move(m));
      break;
    default:
      assert(false && "unexpected request type");
  }
}

void SvmAgent::handle_direct(net::Message&& m) {
  switch (m.type) {
    case net::MsgType::kBarrierArrive:
      assert(self_ == shared_->hub.manager());
      shared_->hub.arrive(std::move(m));
      break;
    case net::MsgType::kBarrierRelease:
      barrier_release_msg_ = std::move(m);
      barrier_release_.fire();
      break;
    default:
      assert(false && "unexpected direct message");
  }
}

Task<void> SvmAgent::handle_page_request(net::Message m) {
  const std::uint32_t pb = space_->page_bytes();
  co_await sim_->delay(cfg_->arch.tlb_access_cycles +
                       install_cycles(cfg_->arch, pb));
  auto home = space_->home_data(m.page);
  BytesRef data = pools_->bytes();
  data->bytes.assign(home.begin(), home.end());
  co_await sim_->delay(cfg_->comm.host_overhead);
  net::Message rep;
  rep.type = net::MsgType::kPageReply;
  rep.page = m.page;
  rep.payload_bytes = pb;
  rep.body = std::move(data);
  co_await comm_->reply(m, std::move(rep));
}

Task<void> SvmAgent::handle_diff_batch(net::Message m) {
  const DiffBatchBody& batch = diff_batch_body(m.body);
  const std::uint32_t pb = space_->page_bytes();
  Cycles cost = 0;
  for (const PageDiff& d : batch.view()) {
    apply_diff(space_->home_data(d.page), d);
    SVMSIM_CHECK_HOOK(*sim_, on_diff_apply, sim_->now(), m.src, d.page);
    SVMSIM_PROBE(*sim_, kDiffApply, -1, self_, d.page, d.modified_bytes());
    cost += cfg_->arch.tlb_access_cycles + diff_apply_cycles(cfg_->arch, d);
    if (invalidate_caches) invalidate_caches(d.page * pb, pb);
  }
  co_await sim_->delay(cost + cfg_->comm.host_overhead);
  net::Message rep;
  rep.type = net::MsgType::kDiffAck;
  rep.payload_bytes = 8;
  co_await comm_->reply(m, std::move(rep));
}

Task<void> SvmAgent::grant_lock(net::Message req) {
  LockHomeState& s = shared_->locks.state(req.lock_id);
  SVMSIM_PROBE(*sim_, kLockGrant, -1, self_, req.lock_id, req.src);
  s.owner = req.src;
  s.recall_sent = false;
  const std::uint64_t notices =
      shared_->dir.count_notices(vclock_body(req.body), s.vc);
  co_await sim_->delay(cfg_->comm.host_overhead);
  net::Message g;
  g.type = net::MsgType::kLockGrant;
  g.lock_id = req.lock_id;
  g.payload_bytes = vclock_wire_bytes() + 8 * notices;
  g.body = encode_reply_delta(vclock_body(req.body), s.vc);
  co_await comm_->reply(req, std::move(g));
  // Pipeline the next handoff if more requesters are queued.
  if (!s.waiters.empty() && !s.recall_sent) {
    s.recall_sent = true;
    if (s.owner == self_) {
      proxy(req.lock_id).recall_pending = true;
    } else {
      co_await sim_->delay(cfg_->comm.host_overhead);
      net::Message rec;
      rec.type = net::MsgType::kLockRecall;
      rec.dst = s.owner;
      rec.lock_id = req.lock_id;
      rec.payload_bytes = 16;
      co_await comm_->send(std::move(rec));
    }
  }
}

Task<void> SvmAgent::handle_lock_acquire(net::Message m) {
  const int lock = m.lock_id;
  LockHomeState& s = shared_->locks.state(lock);
  if (s.owner == self_) {
    LockProxy& lp = proxy(lock);
    if (lp.token && !lp.held && !lp.remote_pending && lp.waiters.empty() &&
        !lp.recall_pending) {
      lp.token = false;
      co_await grant_lock(std::move(m));
      co_return;
    }
    // Busy here at home: queue the request; our own release will hand over.
    lp.recall_pending = true;
    s.recall_sent = true;
    s.waiters.push_back(std::move(m));
    co_return;
  }
  s.waiters.push_back(std::move(m));
  if (!s.recall_sent) {
    s.recall_sent = true;
    co_await sim_->delay(cfg_->comm.host_overhead);
    net::Message rec;
    rec.type = net::MsgType::kLockRecall;
    rec.dst = s.owner;
    rec.lock_id = lock;
    rec.payload_bytes = 16;
    co_await comm_->send(std::move(rec));
  }
}

Task<void> SvmAgent::handle_lock_recall(net::Message m) {
  LockProxy& lp = proxy(m.lock_id);
  SVMSIM_PROBE(*sim_, kLockRecall, -1, self_, m.lock_id, m.src);
  if (lp.token && !lp.held && !lp.remote_pending) {
    // Token is free: return it now, even if local processors are queued —
    // leaving it cached with nobody holding it would strand the token
    // (no release will ever trigger the handoff). Queued locals re-acquire
    // through the home like everyone else.
    lp.token = false;
    co_await send_token_return(m.lock_id, nullptr);
    wake_one_waiter(lp);
    co_return;
  }
  // Busy (or the recall overtook our grant): give it back at release time.
  lp.recall_pending = true;
}

Task<void> SvmAgent::handle_token_return(net::Message m) {
  const int lock = m.lock_id;
  assert(lock >= 0);
  LockHomeState& s = shared_->locks.state(lock);
  s.recall_sent = false;
  if (!s.waiters.empty()) {
    net::Message req = std::move(s.waiters.front());
    s.waiters.pop_front();
    co_await grant_lock(std::move(req));
    co_return;
  }
  s.owner = self_;
  proxy(lock).token = true;
}

// ---------------------------------------------------------------------------
// HLRC specialization
// ---------------------------------------------------------------------------

Task<void> HlrcAgent::arm_write(Processor& p, PageId page, PageCopy& c) {
  (void)page;
  if (home_of(page) == self_) co_return;  // home writes need no twin
  if (c.twin) co_return;
  c.twin = space_->acquire_twin(c.data);
  SVMSIM_PROBE(*sim_, kTwinCreate, p.id(), self_, page, 0);
  p.charge(TimeCat::kProtocol,
           install_cycles(cfg_->arch, space_->page_bytes()));
}

void HlrcAgent::on_store(Processor&, PageId, PageCopy&, std::uint32_t,
                         std::uint32_t) {}

void HlrcAgent::make_diff(Processor& p, PageId page, PageCopy& c,
                          PageDiff& out) {
  assert(c.twin && "diffing a page without a twin");
  compute_diff(page, c.data, c.twin->bytes, out);
  p.charge(TimeCat::kProtocol,
           diff_create_cycles(cfg_->arch, out, space_->page_bytes()));
  SVMSIM_PROBE(*sim_, kDiffCreate, p.id(), self_, page, out.wire_bytes());
  c.twin.reset();
}

void HlrcAgent::install() {
  SvmAgent::install();
  // Per-home batch tables, sized once: the node count never changes.
  batch_by_home_.resize(static_cast<std::size_t>(space_->nodes()));
  batch_bytes_.resize(static_cast<std::size_t>(space_->nodes()), 0);
}

Task<void> HlrcAgent::propagate_dirty(Processor& p,
                                      const std::vector<PageId>& pages) {
  batch_homes_.clear();
  flush_in_flight_.clear();
  rpc_ids_.clear();
  // The dirty list can hold duplicates (a page flushed early by an
  // invalidation and then re-dirtied); processing one twice would wait on
  // this very batch's own in-flight flush. Stamp instead of a seen-set.
  const std::uint32_t epoch = ++flush_epoch_;
  bool dropped_diff = false;  // kLostDiff fault injection, one per pass

  for (PageId page : pages) {
    std::uint32_t& stamp = flush_epoch_of(page);
    if (stamp == epoch) continue;
    stamp = epoch;
    PageCopy& c = space_->copy(self_, page);
    // Always serialize behind an in-flight flush of this page first: a
    // concurrent flush_page_for_invalidation may be carrying *this
    // release's* writes, and the release is not complete until they are
    // acked at the home. Only then decide whether anything is left to send.
    co_await wait_page_flush(p, page);
    if (!c.dirty) continue;  // flushed early by an invalidation
    c.dirty = false;
    const NodeId h = home_of(page);
    if (h == self_) {
      SVMSIM_CHECK_HOOK(*sim_, on_page_state, sim_->now(), self_, page,
                        c.state, PageState::kReadOnly,
                        check::PageEvent::kFlushDemote);
      c.state = PageState::kReadOnly;  // re-arm write detection at home
      continue;
    }
    DiffBatchRef& bref = batch_by_home_[static_cast<std::size_t>(h)];
    if (!bref) {
      bref = pools_->diff_batch();
      batch_bytes_[static_cast<std::size_t>(h)] = 0;
      batch_homes_.push_back(h);
    }
    PageDiff& d = bref->next();
    make_diff(p, page, c, d);
    SVMSIM_CHECK_HOOK(*sim_, on_page_state, sim_->now(), self_, page, c.state,
                      PageState::kReadOnly, check::PageEvent::kFlushDemote);
    c.state = PageState::kReadOnly;
    if (d.empty()) {
      bref->pop_last();
      continue;
    }
    SVMSIM_CHECK_HOOK(*sim_, on_diff_create, self_, page);
    // Fault injection (kLostDiff): drop the first diff of every release
    // flush on the floor, as if the batch had been truncated.
    if (SVMSIM_CHECK_MUTATION_IS(*sim_, kLostDiff) && !dropped_diff) {
      dropped_diff = true;
      bref->pop_last();
      continue;
    }
    begin_page_flush(page);
    flush_in_flight_.push_back(page);
    batch_bytes_[static_cast<std::size_t>(h)] += d.wire_bytes();
  }

  for (NodeId h : batch_homes_) {
    DiffBatchRef& bref = batch_by_home_[static_cast<std::size_t>(h)];
    if (bref->empty()) {  // every diff of this home came up empty
      bref.reset();
      continue;
    }
    net::Message m;
    m.type = net::MsgType::kDiffBatch;
    m.dst = h;
    m.payload_bytes = 16 + batch_bytes_[static_cast<std::size_t>(h)];
    m.body = std::move(bref);  // leaves the per-home slot empty
    charge_send(p);
    co_await p.drain();
    rpc_ids_.push_back(comm_->rpc_post(m));
    co_await comm_->send(std::move(m));
  }
  if (!rpc_ids_.empty()) {
    const Cycles t0 = co_await p.wait_begin();
    for (std::uint64_t id : rpc_ids_) {
      co_await comm_->await_reply(id);
    }
    p.wait_end(TimeCat::kProtocol, t0);
  }
  for (PageId page : flush_in_flight_) end_page_flush(page);
}

Task<void> HlrcAgent::flush_page_for_invalidation(Processor& p, PageId page,
                                                  PageCopy& c) {
  co_await wait_page_flush(p, page);
  if (!c.dirty) co_return;
  c.dirty = false;
  DiffBatchRef batch = pools_->diff_batch();
  PageDiff& d = batch->next();
  make_diff(p, page, c, d);
  // Demote immediately: a write racing the ack below must fault so it gets
  // a fresh twin and is not silently dropped by the coming invalidation.
  SVMSIM_CHECK_HOOK(*sim_, on_page_state, sim_->now(), self_, page, c.state,
                    PageState::kReadOnly, check::PageEvent::kFlushDemote);
  c.state = PageState::kReadOnly;
  if (d.empty()) co_return;  // dropping the ref recycles the batch
  SVMSIM_CHECK_HOOK(*sim_, on_diff_create, self_, page);
  begin_page_flush(page);
  const std::uint64_t wire = d.wire_bytes();
  net::Message m;
  m.type = net::MsgType::kDiffBatch;
  m.dst = home_of(page);
  m.payload_bytes = 16 + wire;
  m.body = std::move(batch);
  charge_send(p);
  co_await p.drain();
  const std::uint64_t id = comm_->rpc_post(m);
  co_await comm_->send(std::move(m));
  const Cycles t0 = sim_->now();
  co_await comm_->await_reply(id);
  p.wait_end(TimeCat::kProtocol, t0);
  end_page_flush(page);
}

}  // namespace svmsim::svm

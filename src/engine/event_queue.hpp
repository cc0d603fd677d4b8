// A deterministic discrete-event queue.
//
// Events are (time, sequence) ordered; the sequence number makes simultaneous
// events fire in insertion order, which keeps every simulation run
// bit-reproducible regardless of scheduler internals.
//
// detail::TieredScheduler implements the contract (see docs/engine.md): a
// three-tier scheduler shaped around the simulator's scheduling profile: a
// zero/now-delay FIFO lane for same-tick resumptions (resource grants,
// trigger fires, yields), a 4-level x 256-slot hierarchical timing wheel for
// the short fixed latencies that make up nearly all remaining events, and a
// small binary heap for the rare events the wheel cannot index (far-future
// deadlines beyond the wheel horizon, and out-of-band inserts behind the
// wheel cursor). No comparator runs on the hot path.
//
// Hot-path notes: callbacks are stored in a small-buffer-optimized
// InlineAction (no per-event heap allocation for typical captures) inside
// pooled event nodes that never move: every tier, the wire band included,
// moves node pointers or 32-byte POD heap entries, so an action is moved
// once when it is scheduled and runs in place. Drained storage is recycled
// through a thread-local spare slot so back-to-back simulations on one
// thread skip the allocator warm-up entirely.
//
// Wire band: besides the (time, seq) order, the scheduler carries a second
// priority class for cross-node packet deliveries, scheduled with
// schedule_wire(when, key). Wire events order by (time, key) — the key is
// derived from packet content (dst node, src node, NI index, per-link
// sequence), not from global insertion order — and at equal time the whole
// wire band fires before any (time, seq) event. This makes the delivery
// order of network traffic a pure function of each sender's local history,
// and gives the schedule explorer (src/explore/) a per-channel view of the
// deliveries it may reorder (WireArbiter).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "engine/inline_function.hpp"
#include "engine/types.hpp"

namespace svmsim::engine {

/// One co-enabled wire-band alternative offered to a WireArbiter: the
/// earliest pending delivery of one channel (key >> 32 identifies the
/// channel — see src/net/wire_key.hpp). Alternatives are presented in the
/// band's fire order, so alts[0] is the delivery that would fire by default.
struct WireChoice {
  Cycles when = 0;
  std::uint32_t defer = 0;
  std::uint64_t key = 0;
};

/// Scheduler hook consulted whenever the wire band is about to fire while
/// two or more delivery channels have a pending head. Returning i > 0 defers
/// every delivery ordered before alts[i] until just after it (per-channel
/// FIFO order is preserved), making the chosen delivery fire next; returning
/// 0 keeps the default order. Installed via set_wire_arbiter(); null (the
/// default) costs one branch per wire fire and changes nothing — normal
/// simulations never see it. The schedule explorer (src/explore/) is the
/// only client; see docs/exploration.md for the choice-point contract.
class WireArbiter {
 public:
  virtual ~WireArbiter() = default;

  /// Pick which of `n` (>= 2) channel heads fires next; must return < n.
  virtual std::size_t choose_wire(const WireChoice* alts, std::size_t n) = 0;

  /// Observation: `key` is about to fire off the wire band. Called for
  /// *every* wire fire (including solo fires that offered no choice), so an
  /// explorer's sleep-set bookkeeping sees actions that bypassed
  /// choose_wire. Default: ignore.
  virtual void on_wire_fire(std::uint64_t key) { (void)key; }
};

namespace detail {

/// A pooled event node: 24 bytes of ordering/link state + the 48-byte
/// inline action. Nodes never move once placed — tiers relink pointers, and
/// the wire band orders POD entries that point at them. A wire node's
/// `when`/`seq` are unused (its WireEvent carries the order).
struct EventNode {
  Cycles when = 0;
  std::uint64_t seq = 0;
  EventNode* next = nullptr;
  BasicInlineAction<24> action;
};

/// A wire-band event: a cross-node packet delivery ordered by (time, defer,
/// key) instead of (time, seq). See the file comment for why the key is
/// content-derived. `defer` is 0 everywhere except under a WireArbiter,
/// where it encodes how a chosen alternative displaced the events that
/// would have fired before it — default runs never produce a nonzero defer,
/// so (time, key) remains the observable order. Wire events are always
/// strictly in the future (the network's latency floor is >= 1 cycle),
/// which schedule_wire() asserts. The entry is a trivially copyable heap
/// key; the action stays put in its pooled `node`.
struct WireEvent {
  Cycles when = 0;
  std::uint64_t key = 0;
  std::uint32_t defer = 0;
  EventNode* node = nullptr;
};
static_assert(sizeof(WireEvent) == 32);
static_assert(std::is_trivially_copyable_v<WireEvent>);

/// Heap comparator for the wire band: "a fires later than b" by
/// (time, defer, key).
struct WireFiresLater {
  bool operator()(const WireEvent& a, const WireEvent& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    if (a.defer != b.defer) return a.defer > b.defer;
    return a.key > b.key;
  }
};

/// Consult `arb` over the current per-channel heads of `wire` (a min-heap by
/// WireFiresLater). Called only when the band is about to fire; with fewer
/// than two distinct channels pending there is no decision and the call is a
/// no-op. Returns true if the arbiter reordered the band (the caller must
/// re-compare wire-vs-normal band priority: deferral can push the wire head
/// past pending (time, seq) events).
bool arbitrate_wire(std::vector<WireEvent>& wire, WireArbiter& arb);

/// The tiered scheduler: zero-delay FIFO lane + hierarchical timing wheel +
/// overflow heap, all serving the same (time, seq) total order.
///
/// Events live in pooled intrusive-list nodes: tiers link and splice
/// pointers instead of relocating 64-byte events, the node pool grows
/// geometrically and is recycled per thread across simulations, and a
/// warmed steady state never touches the allocator (the invariant
/// tests/test_pools.cpp enforces for whole-system windows).
///
/// Tier selection on insert:
///  * when == now() while the lane is at now() (the schedule_in(0) /
///    schedule_now resumption path): append to the FIFO lane — no
///    comparator, no slot math. Lane FIFO order is seq order because seq is
///    globally monotonic.
///  * when indexable by the wheel (not behind the cursor, within the same
///    2^32-cycle top-level window): append to the slot list of the lowest
///    wheel level whose granularity can distinguish it. The (time, seq)
///    order within a slot is its append order because every slot is filled
///    by at most one cascade batch (older seqs) followed by direct inserts
///    (newer, monotonically growing seqs); draining a level-0 slot is an
///    O(1) splice of the whole list onto the lane.
///  * everything else (beyond the horizon, or behind the cursor because the
///    wheel swept ahead of now() while filling the lane): a small binary
///    heap, consulted by (time, seq) comparison against the lane front on
///    every fire. In steady state it is empty and costs one branch.
class TieredScheduler {
 public:
  using Action = BasicInlineAction<24>;

  TieredScheduler();
  ~TieredScheduler();

  TieredScheduler(const TieredScheduler&) = delete;
  TieredScheduler& operator=(const TieredScheduler&) = delete;

  /// Current simulated time. Advances only inside run()/step().
  [[nodiscard]] Cycles now() const noexcept { return now_; }

  /// Schedule `action` to run at absolute time `when` (must be >= now()).
  void schedule_at(Cycles when, Action action) {
    assert(when >= now_ && "cannot schedule an event in the past");
    Node* n = acquire(when, std::move(action));
    if (when == now_ && lane_admits_now()) {
      lane_append(n);
      return;
    }
    route(n);
  }

  /// Schedule `action` to run `delay` cycles from now.
  void schedule_in(Cycles delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Same-tick fast path (equivalent to schedule_in(0)): the dominant
  /// resumption pattern — resource handoffs, trigger fires, yields — skips
  /// all tier routing and lands in the FIFO lane.
  void schedule_now(Action action) {
    Node* n = acquire(now_, std::move(action));
    if (lane_admits_now()) [[likely]] {
      lane_append(n);
    } else {
      route(n);
    }
  }

  /// Schedule a wire-band event at absolute time `when` (must be strictly
  /// after now()): fires before any (time, seq) event at the same time,
  /// ordered among wire events by `key`. See the file comment.
  void schedule_wire(Cycles when, std::uint64_t key, Action action);

  /// Install (or clear, with nullptr) the wire-band choice hook. Serial
  /// explorer-mode only; see WireArbiter.
  void set_wire_arbiter(WireArbiter* arb) noexcept { arbiter_ = arb; }

  /// Pre-size the event node pool (events, not bytes).
  void reserve(std::size_t events);

  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return lane_size_ + wheel_count_ + heap_.size() + wire_.size();
  }
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }

  /// Run a single event; returns false if none pending.
  bool step();

  /// Run until no events remain.
  void run_until_idle();

  /// Run until no events remain or simulated time would exceed `deadline`.
  /// Returns true if the queue drained, false if the deadline stopped it.
  bool run_until(Cycles deadline);

  /// Drop all pending events from every tier without running them.
  void clear() noexcept;

 private:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr Cycles kSlotMask = kSlots - 1;
  static constexpr std::size_t kWords = kSlots / 64;  // occupancy bitmap

  using Node = EventNode;

  /// A FIFO of nodes (slot or lane); append is O(1), splice is O(1).
  struct List {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  /// Recycled storage stashed per thread across scheduler lifetimes (see
  /// event_queue.cpp). Chunks own the nodes; the free list threads through
  /// them. Stashed only fully drained, so no action outlives its pools.
  struct Storage {
    std::vector<std::unique_ptr<Node[]>> chunks;
    Node* free_list = nullptr;
    std::size_t node_count = 0;
    std::vector<Node*> heap;
  };
  static Storage& spare_storage();

  /// True while appending at now() preserves the (time, seq) fire order:
  /// the lane is empty or already holds this tick's events. (The lane can
  /// hold a *future* tick after run_until() stopped on a deadline mid-fill;
  /// then a same-tick insert must detour through the heap tier.)
  [[nodiscard]] bool lane_admits_now() const noexcept {
    return lane_.head == nullptr || lane_.head->when == now_;
  }

  /// Take a node off the pool holding `action` (the one move it makes).
  [[nodiscard]] Node* take(Action&& action) {
    if (free_ == nullptr) [[unlikely]] refill();
    Node* n = free_;
    free_ = n->next;
    n->next = nullptr;
    n->action = std::move(action);
    return n;
  }

  /// A (time, seq)-band node: take() plus its place in that order.
  [[nodiscard]] Node* acquire(Cycles when, Action&& action) {
    Node* n = take(std::move(action));
    n->when = when;
    n->seq = next_seq_++;
    return n;
  }

  /// Return a node to the pool, dropping its action (and any pooled
  /// references the capture holds) immediately.
  void release(Node* n) noexcept {
    n->action = Action{};
    n->next = free_;
    free_ = n;
  }

  void lane_append(Node* n) noexcept {
    if (lane_.tail) {
      lane_.tail->next = n;
    } else {
      lane_.head = n;
    }
    lane_.tail = n;
    ++lane_size_;
  }

  void refill();                      // grow the node pool (out of line)
  void route(Node* n);                // wheel-or-heap slow path
  void wheel_insert(Node* n);         // pre: indexable by the wheel
  bool advance();                     // splice the next wheel tick onto lane
  bool drain_level0();
  bool cascade_next(int level);       // jump cursor to next occupied slot
  void cascade(int level, std::size_t idx);
  void roll();                        // cursor crossed a slot-0 boundary
  void fire_lane();
  void fire_heap();
  void fire_next();                   // caller ensured lane or heap nonempty
  void fire_wire();                   // caller ensured wire band nonempty
  void release_list(List& l) noexcept;

  /// Time of the earliest (time, seq)-band event; caller ensured the lane
  /// or the heap tier is nonempty (i.e. advance() already ran).
  [[nodiscard]] Cycles normal_next_time() const noexcept {
    if (lane_.head != nullptr) {
      Cycles t = lane_.head->when;
      if (!heap_.empty() && heap_.front()->when < t) t = heap_.front()->when;
      return t;
    }
    return heap_.front()->when;
  }

  [[nodiscard]] bool bit_set(int level, std::size_t idx) const noexcept {
    return (bits_[level][idx >> 6] >> (idx & 63)) & 1u;
  }
  static int scan_bits(const std::uint64_t* words, std::size_t from);

  List lane_;                         // tier 1: same-tick FIFO
  std::size_t lane_size_ = 0;
  List slots_[kLevels][kSlots] = {};  // tier 2: hierarchical timing wheel
  std::uint32_t counts_[kLevels][kSlots] = {};
  std::uint64_t bits_[kLevels][kWords] = {};
  std::vector<Node*> heap_;           // tier 3: overflow/out-of-band heap
  std::vector<WireEvent> wire_;       // wire band: min-heap (when, defer, key)
                                      // over pooled nodes
  WireArbiter* arbiter_ = nullptr;
  Cycles now_ = 0;
  Cycles cursor_ = 0;                 // first time not yet swept to the lane
  std::size_t wheel_count_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  // Node pool.
  Node* free_ = nullptr;
  std::size_t node_count_ = 0;
  std::vector<std::unique_ptr<Node[]>> chunks_;
};

}  // namespace detail

using EventQueue = detail::TieredScheduler;

}  // namespace svmsim::engine

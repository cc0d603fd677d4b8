#include "engine/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace svmsim::engine::detail {

// ---------------------------------------------------------------------------
// Wire-band arbitration
//
// Offers the arbiter one alternative per delivery channel — the channel's
// earliest pending event, in the band's fire order — and, when it picks
// alternative i > 0, defers the displaced events to fire just after it:
// every event ordered before the chosen one moves to (chosen.when,
// chosen.defer + 1 + rank), where rank is its position in the displaced
// set's original fire order. Two invariants make this a clean "which
// delivery fires next" permutation:
//
//  * Per-channel FIFO: a channel with a deferred member must not leave a
//    same-instant follower un-deferred (it would overtake). The closure loop
//    pulls those followers into the deferred set, in order.
//  * One decision per fire: the chosen event becomes the strict band
//    minimum, so it fires on the very next wire fire — unless deferral
//    pushed the band head past a pending (time, seq) event, which is why
//    callers re-compare band priority after arbitration.
//
// Arbitration rewrites the (when, defer) of POD heap entries and re-heapifies
// them; the actions stay in their pooled nodes.
// ---------------------------------------------------------------------------

bool arbitrate_wire(std::vector<WireEvent>& wire, WireArbiter& arb) {
  const std::size_t n = wire.size();
  if (n < 2) return false;
  // Fire-ordered view of the band (the heap itself is only partially
  // ordered). The band is small — tens of entries — so O(n log n) sorts and
  // O(n^2) channel scans are cheaper than hashing.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return WireFiresLater{}(wire[b], wire[a]);
  });
  std::vector<std::uint64_t> channels;
  std::vector<WireChoice> alts;
  std::vector<std::size_t> alt_pos;  // position of each alternative in order
  for (std::size_t p = 0; p < n; ++p) {
    const WireEvent& e = wire[order[p]];
    const std::uint64_t ch = e.key >> 32;
    if (std::find(channels.begin(), channels.end(), ch) != channels.end()) {
      continue;
    }
    channels.push_back(ch);
    alts.push_back(WireChoice{e.when, e.defer, e.key});
    alt_pos.push_back(p);
  }
  if (alts.size() < 2) return false;
  const std::size_t pick = arb.choose_wire(alts.data(), alts.size());
  assert(pick < alts.size() && "WireArbiter returned an out-of-range pick");
  if (pick == 0 || pick >= alts.size()) return false;
  const std::size_t chosen_pos = alt_pos[pick];
  const Cycles when = alts[pick].when;
  const std::uint32_t base = alts[pick].defer;
  std::vector<std::size_t> deferred;  // wire indices, in displaced fire order
  std::vector<std::uint64_t> hit;     // channels owning a deferred event
  deferred.reserve(chosen_pos);
  for (std::size_t p = 0; p < chosen_pos; ++p) {
    deferred.push_back(order[p]);
    const std::uint64_t ch = wire[order[p]].key >> 32;
    if (std::find(hit.begin(), hit.end(), ch) == hit.end()) hit.push_back(ch);
  }
  // FIFO closure: same-instant followers of an already-deferred channel.
  for (std::size_t p = chosen_pos + 1; p < n; ++p) {
    const WireEvent& e = wire[order[p]];
    if (e.when != when) break;  // order is ascending in when
    if (std::find(hit.begin(), hit.end(), e.key >> 32) != hit.end()) {
      deferred.push_back(order[p]);
    }
  }
  for (std::size_t r = 0; r < deferred.size(); ++r) {
    WireEvent& e = wire[deferred[r]];
    e.when = when;
    e.defer = base + 1 + static_cast<std::uint32_t>(r);
  }
  std::make_heap(wire.begin(), wire.end(), WireFiresLater{});
  return true;
}

// ---------------------------------------------------------------------------
// TieredScheduler
//
// Wheel geometry: level k (k = 0..3) has 256 slots of 256^k cycles each, so
// level k spans one 256^(k+1)-cycle window aligned on the cursor. An event
// lives at the lowest level whose current window contains it — i.e. the
// highest byte in which `when` still differs from the cursor picks the
// level, and that byte of `when` picks the slot. Each slot therefore covers
// exactly one child window; when the cursor enters a window, the parent slot
// "cascades": its nodes are relinked one level down (and the nodes of a
// level-0 slot, which share a single tick, splice onto the FIFO lane as a
// batch).
//
// Ordering invariant: a slot list, restricted to any single `when`, is
// always in ascending seq order. It holds because (a) a slot receives at
// most one cascade batch, exactly when the cursor enters its window and
// before any user code runs, (b) cascading walks the parent list in order,
// and (c) every later direct insert carries a seq greater than anything
// already stored anywhere. Splicing a level-0 slot onto the lane in list
// order is thus the (time, seq) order the contract requires.
// ---------------------------------------------------------------------------

namespace {

/// Heap comparator over pooled nodes (the heap tier stores pointers).
struct NodeFiresLater {
  template <typename NodePtr>
  bool operator()(const NodePtr& a, const NodePtr& b) const noexcept {
    if (a->when != b->when) return a->when > b->when;
    return a->seq > b->seq;
  }
};

}  // namespace

TieredScheduler::Storage& TieredScheduler::spare_storage() {
  // The whole node pool (chunks + free list + heap vector) is recycled
  // across scheduler lifetimes so consecutive runs on one thread reuse
  // warmed-up capacity. thread_local keeps the parallel sweep executor's
  // workers from ever sharing storage.
  thread_local Storage spare;
  return spare;
}

TieredScheduler::TieredScheduler() {
  Storage& sp = spare_storage();
  if (sp.node_count > 0) {
    chunks_ = std::move(sp.chunks);
    free_ = sp.free_list;
    node_count_ = sp.node_count;
    heap_ = std::move(sp.heap);
    sp.chunks.clear();
    sp.free_list = nullptr;
    sp.node_count = 0;
  }
  heap_.clear();
}

TieredScheduler::~TieredScheduler() {
  clear();
  Storage& sp = spare_storage();
  if (node_count_ > sp.node_count) {
    sp.chunks = std::move(chunks_);
    sp.free_list = free_;
    sp.node_count = node_count_;
    sp.heap = std::move(heap_);
  }
}

void TieredScheduler::refill() {
  // Geometric growth: double the pool each time, starting at 256 nodes.
  const std::size_t add = node_count_ == 0 ? 256 : node_count_;
  chunks_.push_back(std::make_unique<Node[]>(add));
  Node* nodes = chunks_.back().get();
  for (std::size_t i = 0; i < add; ++i) {
    nodes[i].next = free_;
    free_ = &nodes[i];
  }
  node_count_ += add;
}

void TieredScheduler::reserve(std::size_t events) {
  while (node_count_ < events) refill();
}

void TieredScheduler::route(Node* n) {
  // Routing happens against the wheel cursor, not now_: the cursor may have
  // swept ahead of now_ while moving a tick onto the lane. If the wheel and
  // lane are empty the cursor position carries no state, so drag it up to
  // now_ first — this keeps long heap-driven stretches (events beyond the
  // horizon) from degrading every later insert to the heap tier.
  if (wheel_count_ == 0 && lane_size_ == 0 && cursor_ < now_) cursor_ = now_;
  if (n->when < cursor_ || ((n->when ^ cursor_) >> (kLevels * kSlotBits)) != 0) {
    heap_.push_back(n);
    std::push_heap(heap_.begin(), heap_.end(), NodeFiresLater{});
    return;
  }
  wheel_insert(n);
}

void TieredScheduler::wheel_insert(Node* n) {
  // Highest differing byte between when and cursor picks the level.
  const Cycles x = n->when ^ cursor_;
  int level = 0;
  if (x >> kSlotBits) {
    level = (x >> (2 * kSlotBits)) ? ((x >> (3 * kSlotBits)) ? 3 : 2) : 1;
  }
  const std::size_t idx =
      static_cast<std::size_t>(n->when >> (level * kSlotBits)) & kSlotMask;
  List& s = slots_[level][idx];
  n->next = nullptr;
  if (s.tail) {
    s.tail->next = n;
  } else {
    s.head = n;
  }
  s.tail = n;
  ++counts_[level][idx];
  bits_[level][idx >> 6] |= std::uint64_t{1} << (idx & 63);
  ++wheel_count_;
}

int TieredScheduler::scan_bits(const std::uint64_t* words, std::size_t from) {
  std::size_t w = from >> 6;
  std::uint64_t cur = words[w] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (cur) {
      return static_cast<int>((w << 6) +
                              static_cast<std::size_t>(std::countr_zero(cur)));
    }
    if (++w == kWords) return -1;
    cur = words[w];
  }
}

bool TieredScheduler::drain_level0() {
  const int found =
      scan_bits(bits_[0], static_cast<std::size_t>(cursor_ & kSlotMask));
  if (found < 0) return false;
  const auto idx = static_cast<std::size_t>(found);
  const Cycles tick = (cursor_ & ~kSlotMask) | static_cast<Cycles>(idx);
  List& s = slots_[0][idx];
  assert(s.head != nullptr && s.head->when == tick &&
         "a level-0 slot must hold a single tick");
  // Splice the whole slot list (already in seq order) onto the lane: O(1).
  if (lane_.tail) {
    lane_.tail->next = s.head;
  } else {
    lane_.head = s.head;
  }
  lane_.tail = s.tail;
  lane_size_ += counts_[0][idx];
  wheel_count_ -= counts_[0][idx];
  counts_[0][idx] = 0;
  s.head = s.tail = nullptr;
  bits_[0][idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  cursor_ = tick + 1;
  // Crossing a 256-cycle boundary enters new windows; cascade their parent
  // slots down *now*, before any insert can route against the new cursor.
  if ((cursor_ & kSlotMask) == 0) roll();
  return true;
}

void TieredScheduler::cascade(int level, std::size_t idx) {
  List& s = slots_[level][idx];
  Node* n = s.head;
  s.head = s.tail = nullptr;
  wheel_count_ -= counts_[level][idx];
  counts_[level][idx] = 0;
  bits_[level][idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  while (n != nullptr) {
    Node* next = n->next;
    // Every cascaded node re-routes strictly below `level` (its window now
    // matches the cursor's through this level), so `s` is never re-entered
    // while we walk it.
    assert(((n->when ^ cursor_) >> (level * kSlotBits)) == 0);
    wheel_insert(n);
    n = next;
  }
}

void TieredScheduler::roll() {
  assert((cursor_ & kSlotMask) == 0);
  // Cascade top-down so each level's events are in place before the child
  // window is populated from them. At a 2^32 boundary there is nothing to
  // pull (beyond-horizon events wait in the heap tier), and the level-3
  // slot for the new window is empty by construction.
  if ((cursor_ & ((Cycles{1} << (3 * kSlotBits)) - 1)) == 0) {
    const std::size_t i3 =
        static_cast<std::size_t>(cursor_ >> (3 * kSlotBits)) & kSlotMask;
    if (bit_set(3, i3)) cascade(3, i3);
  }
  if ((cursor_ & ((Cycles{1} << (2 * kSlotBits)) - 1)) == 0) {
    const std::size_t i2 =
        static_cast<std::size_t>(cursor_ >> (2 * kSlotBits)) & kSlotMask;
    if (bit_set(2, i2)) cascade(2, i2);
  }
  const std::size_t i1 =
      static_cast<std::size_t>(cursor_ >> kSlotBits) & kSlotMask;
  if (bit_set(1, i1)) cascade(1, i1);
}

bool TieredScheduler::cascade_next(int level) {
  const int found = scan_bits(
      bits_[level],
      static_cast<std::size_t>(cursor_ >> (level * kSlotBits)) & kSlotMask);
  if (found < 0) return false;
  // Jump the cursor to the base of that slot's child window and unpack it.
  // Slots behind the per-level cursor index are empty (their times have
  // passed), so the jump skips only verified-empty space.
  const Cycles span = Cycles{1} << (level * kSlotBits);
  const Cycles window = span << kSlotBits;
  cursor_ = (cursor_ & ~(window - 1)) | (static_cast<Cycles>(found) * span);
  cascade(level, static_cast<std::size_t>(found));
  return true;
}

bool TieredScheduler::advance() {
  while (wheel_count_ > 0) {
    if (drain_level0()) return true;
    if (cascade_next(1) || cascade_next(2) || cascade_next(3)) continue;
    assert(false && "wheel_count_ out of sync with occupied slots");
    wheel_count_ = 0;  // defensive: fall back to lane/heap in release builds
  }
  return false;
}

void TieredScheduler::fire_lane() {
  Node* n = lane_.head;
  lane_.head = n->next;
  if (lane_.head == nullptr) lane_.tail = nullptr;
  --lane_size_;
  now_ = n->when;
  ++fired_;
  n->action();  // in place: no action move on the fire path
  release(n);
}

void TieredScheduler::fire_heap() {
  std::pop_heap(heap_.begin(), heap_.end(), NodeFiresLater{});
  Node* n = heap_.back();
  heap_.pop_back();
  now_ = n->when;
  ++fired_;
  n->action();
  release(n);
}

void TieredScheduler::schedule_wire(Cycles when, std::uint64_t key,
                                    Action action) {
  assert(when > now_ && "wire events must be strictly in the future");
  // The action moves once, into a pooled node; heap sifts move the 32-byte
  // POD entry only. No seq: the band orders by (when, defer, key).
  wire_.push_back(WireEvent{when, key, 0, take(std::move(action))});
  std::push_heap(wire_.begin(), wire_.end(), WireFiresLater{});
}

void TieredScheduler::fire_wire() {
  std::pop_heap(wire_.begin(), wire_.end(), WireFiresLater{});
  const WireEvent ev = wire_.back();
  wire_.pop_back();
  now_ = ev.when;
  ++fired_;
  if (arbiter_ != nullptr) [[unlikely]] arbiter_->on_wire_fire(ev.key);
  ev.node->action();  // in place, like fire_lane
  release(ev.node);
}

void TieredScheduler::fire_next() {
  if (lane_.head != nullptr) [[likely]] {
    if (heap_.empty()) [[likely]] {
      fire_lane();
      return;
    }
    const Node* h = heap_.front();
    const Node* l = lane_.head;
    if (h->when > l->when || (h->when == l->when && h->seq > l->seq)) {
      fire_lane();
      return;
    }
  }
  fire_heap();
}

bool TieredScheduler::step() {
  const bool have_normal =
      !(lane_.head == nullptr && !advance() && heap_.empty());
  if (arbiter_ != nullptr && !wire_.empty() &&
      (!have_normal || wire_.front().when <= normal_next_time()))
      [[unlikely]] {
    // Arbitration may defer the band head past the normal band, so the
    // wire-vs-normal comparison below runs on the post-arbitration state.
    arbitrate_wire(wire_, *arbiter_);
  }
  if (!wire_.empty() &&
      (!have_normal || wire_.front().when <= normal_next_time())) {
    fire_wire();
    return true;
  }
  if (!have_normal) return false;
  fire_next();
  return true;
}

void TieredScheduler::run_until_idle() {
  while (step()) {
  }
}

bool TieredScheduler::run_until(Cycles deadline) {
  for (;;) {
    const bool have_normal =
        !(lane_.head == nullptr && !advance() && heap_.empty());
    Cycles next = have_normal ? normal_next_time() : kNever;
    if (arbiter_ != nullptr && !wire_.empty() && wire_.front().when <= next)
        [[unlikely]] {
      arbitrate_wire(wire_, *arbiter_);
    }
    bool wire = false;
    if (!wire_.empty() && wire_.front().when <= next) {
      next = wire_.front().when;
      wire = true;
    }
    if (next == kNever) return true;
    if (next > deadline) return false;
    if (wire) {
      fire_wire();
    } else {
      fire_next();
    }
  }
}

void TieredScheduler::release_list(List& l) noexcept {
  Node* n = l.head;
  while (n != nullptr) {
    Node* next = n->next;
    release(n);
    n = next;
  }
  l.head = l.tail = nullptr;
}

void TieredScheduler::clear() noexcept {
  release_list(lane_);
  lane_size_ = 0;
  for (Node* n : heap_) release(n);
  heap_.clear();
  for (const WireEvent& e : wire_) release(e.node);
  wire_.clear();
  if (wheel_count_ > 0) {
    for (int level = 0; level < kLevels; ++level) {
      for (std::size_t w = 0; w < kWords; ++w) {
        std::uint64_t bits = bits_[level][w];
        while (bits) {
          const std::size_t idx =
              (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          release_list(slots_[level][idx]);
          counts_[level][idx] = 0;
        }
        bits_[level][w] = 0;
      }
    }
    wheel_count_ = 0;
  }
}

}  // namespace svmsim::engine::detail

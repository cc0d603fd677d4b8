// Online consistency checker: a happens-before shadow oracle for the SVM
// protocols.
//
// The serial simulation is single-threaded, so the checker observes one
// global sequential order of every shared-memory access, protocol state
// change and synchronization handoff. In PDES mode the partitions call the
// hooks concurrently; an internal mutex serializes them, and every *verdict*
// is interleaving-independent because reads are only judged against writes
// their vector clock covers — writes that reached the shadow at least one
// lookahead window (and one mutex acquisition) earlier. Unordered
// concurrent accesses are already skipped as application races either way.
// The checker maintains
//
//  * a shadow copy of the shared address space, updated at every timed write
//    and every out-of-band initialization write, plus per-4-byte-word
//    metadata {last writer node, writer interval index};
//  * per-(node, page) fetch/notice bookkeeping mirroring PageCopy::inval_gen;
//  * per-(writer, page) diff/update lifecycle counts;
//  * per-lock release clocks and a per-epoch barrier rendezvous log.
//
// From these it validates, online,
//
//  (a) the data oracle: a read must return the latest value of each word
//      whose writing interval the reader's vector clock covers (or that the
//      reader's own node wrote). Reads of words whose last write is not
//      ordered before the reader are intentional races in the application
//      (allowed under release consistency) and are skipped, not judged.
//  (b) the page state machine: every transition in hlrc.cpp/aurc.cpp is one
//      of the six legal edges (no invalid->dirty, no write-notice
//      resurrection: a fetch that overlapped an invalidation notice must
//      install invalid, not read-only);
//  (c) lifecycle and clocks: no diff/update applied more often than created
//      (and none lost by the end of the run), vector clocks monotone, lock
//      acquires covering the last release of that lock, barrier exits
//      covering the merged clock of a fully-arrived epoch.
//
// The checker is passive: it never charges time, posts messages or touches
// protocol state, so a checked run is byte-identical to an unchecked one
// (tools/instrumentation_equivalence.sh proves it). Gate: hooks null-check
// engine::Simulator::checker(). See docs/checking.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "check/config.hpp"
#include "engine/types.hpp"
#include "svm/address_space.hpp"
#include "svm/vclock.hpp"

namespace svmsim::check {

enum class Kind : std::uint8_t {
  kStaleRead = 0,    ///< read missed a happens-before-ordered write
  kRacyWrite,        ///< conflicting write without synchronization order
  kBadTransition,    ///< illegal page state-machine edge
  kResurrection,     ///< fetch installed read-only across an inval notice
  kDiffUnmatched,    ///< diff/update applied more often than created
  kDiffLost,         ///< diff created but never applied at the home
  kUpdateLost,       ///< update emitted but never applied at the home
  kClockRegression,  ///< a node's vector clock went backwards (or ran ahead)
  kLockHandoff,      ///< acquire does not cover the lock's last release
  kBarrierHandoff,   ///< barrier exit without full rendezvous coverage
  kFinalDivergence,  ///< home copy != shadow after the final barrier
  kCount,
};

[[nodiscard]] std::string_view to_string(Kind k) noexcept;

/// Which protocol action performed a page state transition (the edge label
/// of the state machine; legality is checked per event, not just per pair).
enum class PageEvent : std::uint8_t {
  kHomeMap = 0,        ///< home maps its own untouched page
  kFetchInstall,       ///< fetched copy installed read-only
  kFetchInstallStale,  ///< fetch raced a notice; installed invalid
  kArmWrite,           ///< write fault armed write detection (twin/AU)
  kFlushDemote,        ///< release flush re-armed write detection
  kInvalidate,         ///< write notice dropped the copy
};

[[nodiscard]] std::string_view to_string(PageEvent e) noexcept;

struct Violation {
  Kind kind = Kind::kCount;
  Cycles time = 0;
  NodeId node = -1;
  svm::PageId page = 0;
  std::string detail;
};

/// The per-run oracle. Constructed by Machine when SimConfig::check.enabled
/// is set; reached by every protocol layer through
/// engine::Simulator::checker() via the SVMSIM_CHECK_HOOK macro.
class Checker {
 public:
  /// Shadow metadata granularity; matches the protocol's diff granularity.
  static constexpr std::uint32_t kWordBytes = 4;
  /// Writer id of initialization data (debug_write / zero-fill): visible to
  /// every reader unconditionally.
  static constexpr std::int16_t kInitWriter = -1;
  /// Violations beyond this many are counted but not stored in detail.
  static constexpr std::size_t kMaxRecorded = 64;

  Checker(const Config& cfg, svm::AddressSpace& space);
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  /// Active fault injection (SVMSIM_CHECK_MUTATION, read at construction).
  [[nodiscard]] Mutation mutation() const noexcept { return mutation_; }

  [[nodiscard]] std::uint64_t violation_count() const noexcept {
    return violation_count_;
  }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] bool clean() const noexcept { return violation_count_ == 0; }

  // Inspection counters (tests and the end-of-run report).
  [[nodiscard]] std::uint64_t checked_words() const noexcept {
    return checked_words_;
  }
  [[nodiscard]] std::uint64_t racy_words_skipped() const noexcept {
    return racy_words_skipped_;
  }
  [[nodiscard]] std::uint64_t words_written() const noexcept {
    return words_written_;
  }
  [[nodiscard]] std::uint64_t transitions() const noexcept {
    return transitions_;
  }

  // ---- data oracle --------------------------------------------------------
  /// Out-of-band initialization write (Machine::debug_write); may span pages.
  void on_debug_write(svm::GlobalAddr a, const void* src, std::uint64_t bytes);
  /// A timed read observed `bytes` at `a` (single page; callers chunk).
  /// `observed` points at the node copy's bytes that the application saw.
  void on_read(Cycles now, NodeId n, const svm::VClock& vc, svm::GlobalAddr a,
               const std::byte* observed, std::uint64_t bytes);
  /// A timed write stored `data` at `a` (single page; callers chunk).
  void on_write(Cycles now, NodeId n, const svm::VClock& vc, svm::GlobalAddr a,
                const std::byte* data, std::uint64_t bytes);

  // ---- page state machine -------------------------------------------------
  void on_page_state(Cycles now, NodeId n, svm::PageId page,
                     svm::PageState from, svm::PageState to, PageEvent ev);
  /// A remote fetch was issued (captures the notice count for resurrection
  /// detection, mirroring PageCopy::inval_gen's gen_at_start).
  void on_fetch_issue(NodeId n, svm::PageId page);
  /// A write notice hit this node's copy (the ++inval_gen site); fires even
  /// for unmapped/invalid copies, exactly like the protocol's counter.
  void on_inval_notice(NodeId n, svm::PageId page);

  // ---- diff / update lifecycle --------------------------------------------
  void on_diff_create(NodeId writer, svm::PageId page);
  void on_diff_apply(Cycles now, NodeId writer, svm::PageId page);
  void on_update_emit(NodeId writer, svm::PageId page);
  void on_update_apply(Cycles now, NodeId writer, svm::PageId page);

  // ---- intervals, clocks, synchronization handoffs ------------------------
  /// The release flush swapped out the interval's dirty list `pages`: writes
  /// from now on belong to the *next* interval (they will be flushed later
  /// even though the vector clock has not advanced yet) — except writes to a
  /// page of `pages` that has not changed state since the cut. Such a page
  /// is still writable without a fault until the flush demotes it, so its
  /// writes travel with the closing interval (in its diff, or straight into
  /// the home copy).
  void on_flush_cut(NodeId n, std::span<const svm::PageId> pages = {});
  /// The node's vector clock changed (advance at flush, merge at acquire).
  void on_vclock(Cycles now, NodeId n, const svm::VClock& vc);
  void on_lock_release(Cycles now, NodeId n, int lock, const svm::VClock& vc);
  void on_lock_acquired(Cycles now, NodeId n, int lock, const svm::VClock& vc);
  /// A node representative finished its pre-barrier flush (arrival).
  void on_barrier_flush(Cycles now, NodeId n, const svm::VClock& vc);
  /// A node representative left the barrier with clock `vc`.
  void on_barrier_exit(Cycles now, NodeId n, const svm::VClock& vc);

  /// Snapshot of node `n`'s vector clock as last reported through
  /// on_vclock. The schedule explorer's happens-before pruner reads these
  /// at wire decision points (docs/exploration.md): two pending deliveries
  /// whose source nodes' clocks are strictly ordered are causally ordered,
  /// so permuting them cannot expose new behavior.
  [[nodiscard]] svm::VClock node_clock(NodeId n) const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_vc_[static_cast<std::size_t>(n)];
  }

  /// End-of-run structural checks (after the runner's final barrier): every
  /// created diff/update applied, every touched home copy equal to the
  /// shadow. Idempotent.
  void finalize(Cycles end_time);

  /// Human-readable report of the run's violations to `out` (stderr in the
  /// runner). Includes the failing run/seed name for reproduction.
  void report(std::string_view run_name, std::FILE* out) const;

 private:
  struct WordMeta {
    std::uint32_t interval = 0;
    std::int16_t writer = kInitWriter;
  };
  struct PageShadow {
    std::vector<std::byte> data;
    std::vector<WordMeta> meta;
  };
  /// Per-(node, page) mirror of the fetch/notice race bookkeeping.
  struct NodePage {
    std::uint32_t notices = 0;
    std::uint32_t fetch_notices = 0;
    bool fetching = false;
    bool closing = false;  ///< cut, not yet demoted: writes join the cut
  };
  struct LifeTrack {
    std::uint64_t created = 0;
    std::uint64_t applied = 0;
  };
  struct BarrierEpoch {
    svm::VClock merged;
    int arrived = 0;
    int exited = 0;
  };

  [[nodiscard]] PageShadow& shadow(svm::PageId p);
  [[nodiscard]] NodePage& node_page(NodeId n, svm::PageId p);
  [[nodiscard]] BarrierEpoch& epoch_at(std::uint64_t e);
  [[nodiscard]] bool visible(NodeId reader, const svm::VClock& vc,
                             const WordMeta& m) const noexcept {
    return m.writer == kInitWriter || m.writer == reader ||
           vc.covers(m.writer, m.interval);
  }
  void add(Kind k, Cycles t, NodeId n, svm::PageId page, std::string detail);

  Config cfg_;
  svm::AddressSpace* space_;
  int nodes_;
  Mutation mutation_ = Mutation::kNone;
  /// Serializes the on_* hooks in PDES mode (see the file comment);
  /// uncontended in serial runs.
  mutable std::mutex mu_;

  std::vector<std::unique_ptr<PageShadow>> pages_;
  std::vector<std::vector<NodePage>> per_node_;  // [node][page]
  /// Interval index the next write of each node belongs to (see
  /// on_flush_cut: the cut, not the clock advance, is the boundary).
  std::vector<std::uint32_t> open_interval_;
  /// True between a node's flush cut and the vc advance that closes the
  /// interval (flush propagation is asynchronous; releases per node are
  /// serialized so at most one cut is ever pending).
  std::vector<bool> cut_pending_;
  /// Per node, the pages of its pending cut (NodePage::closing is set on
  /// those not demoted yet); cleared when the interval closes.
  std::vector<std::vector<svm::PageId>> closing_pages_;
  std::vector<svm::VClock> last_vc_;
  std::map<int, svm::VClock> last_release_;  // per lock id
  std::map<std::pair<NodeId, svm::PageId>, LifeTrack> diffs_;
  std::map<std::pair<NodeId, svm::PageId>, LifeTrack> updates_;
  std::deque<BarrierEpoch> epochs_;
  std::uint64_t epoch_base_ = 0;
  std::vector<std::uint64_t> arrive_count_;
  std::vector<std::uint64_t> exit_count_;

  std::vector<Violation> violations_;
  std::uint64_t violation_count_ = 0;
  std::uint64_t checked_words_ = 0;
  std::uint64_t racy_words_skipped_ = 0;
  std::uint64_t words_written_ = 0;
  std::uint64_t transitions_ = 0;
  bool finalized_ = false;
};

}  // namespace svmsim::check

// Hook macro: a null check on the Simulator's checker pointer before any
// argument is evaluated. `sim` is an engine::Simulator&, `method` a Checker
// member.
//
//   SVMSIM_CHECK_HOOK(*sim_, on_inval_notice, self_, page);
#define SVMSIM_CHECK_HOOK(sim, method, ...)                                  \
  do {                                                                       \
    if (::svmsim::check::Checker* svmsim_ck_ = (sim).checker();              \
        svmsim_ck_ != nullptr) {                                             \
      svmsim_ck_->method(__VA_ARGS__);                                       \
    }                                                                        \
  } while (0)
/// True when the run's checker is active with the given fault injection
/// selected (e.g. SVMSIM_CHECK_MUTATION_IS(*sim_, kLostDiff)).
#define SVMSIM_CHECK_MUTATION_IS(sim, kind)                                  \
  ((sim).checker() != nullptr &&                                             \
   (sim).checker()->mutation() == ::svmsim::check::Mutation::kind)

#include "check/checker.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdlib>
#include <cstring>

namespace svmsim::check {

namespace {

/// printf-style helper for violation detail strings.
[[gnu::format(printf, 1, 2)]] std::string fmt(const char* f, ...) {
  char buf[256];
  std::va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

}  // namespace

std::string_view to_string(Mutation m) noexcept {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kStaleRead: return "stale_read";
    case Mutation::kLostDiff: return "lost_diff";
    case Mutation::kSkippedNotice: return "skipped_notice";
    case Mutation::kReorderSensitiveNotice: return "reorder_sensitive_notice";
  }
  return "?";
}

std::optional<Mutation> parse_mutation(std::string_view name) {
  if (name.empty() || name == "none") return Mutation::kNone;
  if (name == "stale_read") return Mutation::kStaleRead;
  if (name == "lost_diff") return Mutation::kLostDiff;
  if (name == "skipped_notice") return Mutation::kSkippedNotice;
  if (name == "reorder_sensitive_notice") {
    return Mutation::kReorderSensitiveNotice;
  }
  return std::nullopt;
}

std::string_view to_string(Kind k) noexcept {
  switch (k) {
    case Kind::kStaleRead: return "stale-read";
    case Kind::kRacyWrite: return "racy-write";
    case Kind::kBadTransition: return "bad-transition";
    case Kind::kResurrection: return "resurrection";
    case Kind::kDiffUnmatched: return "diff-unmatched";
    case Kind::kDiffLost: return "diff-lost";
    case Kind::kUpdateLost: return "update-lost";
    case Kind::kClockRegression: return "clock-regression";
    case Kind::kLockHandoff: return "lock-handoff";
    case Kind::kBarrierHandoff: return "barrier-handoff";
    case Kind::kFinalDivergence: return "final-divergence";
    case Kind::kCount: break;
  }
  return "?";
}

std::string_view to_string(PageEvent e) noexcept {
  switch (e) {
    case PageEvent::kHomeMap: return "home-map";
    case PageEvent::kFetchInstall: return "fetch-install";
    case PageEvent::kFetchInstallStale: return "fetch-install-stale";
    case PageEvent::kArmWrite: return "arm-write";
    case PageEvent::kFlushDemote: return "flush-demote";
    case PageEvent::kInvalidate: return "invalidate";
  }
  return "?";
}

namespace {

std::string_view state_name(svm::PageState s) noexcept {
  switch (s) {
    case svm::PageState::kUnmapped: return "unmapped";
    case svm::PageState::kInvalid: return "invalid";
    case svm::PageState::kReadOnly: return "read-only";
    case svm::PageState::kReadWrite: return "read-write";
  }
  return "?";
}

}  // namespace

Checker::Checker(const Config& cfg, svm::AddressSpace& space)
    : cfg_(cfg),
      space_(&space),
      nodes_(space.nodes()),
      per_node_(static_cast<std::size_t>(nodes_)),
      open_interval_(static_cast<std::size_t>(nodes_), 1),
      cut_pending_(static_cast<std::size_t>(nodes_), false),
      closing_pages_(static_cast<std::size_t>(nodes_)),
      last_vc_(static_cast<std::size_t>(nodes_), svm::VClock(nodes_)),
      arrive_count_(static_cast<std::size_t>(nodes_), 0),
      exit_count_(static_cast<std::size_t>(nodes_), 0) {
  if (const char* env = std::getenv("SVMSIM_CHECK_MUTATION")) {
    if (auto m = parse_mutation(env)) {
      mutation_ = *m;
    } else {
      std::fprintf(stderr,
                   "svmsim-check: unknown SVMSIM_CHECK_MUTATION '%s' ignored\n",
                   env);
    }
  }
}

Checker::PageShadow& Checker::shadow(svm::PageId p) {
  const auto idx = static_cast<std::size_t>(p);
  if (idx >= pages_.size()) pages_.resize(idx + 1);
  auto& slot = pages_[idx];
  if (!slot) {
    slot = std::make_unique<PageShadow>();
    slot->data.assign(space_->page_bytes(), std::byte{0});
    slot->meta.assign(space_->page_bytes() / kWordBytes, WordMeta{});
  }
  return *slot;
}

Checker::NodePage& Checker::node_page(NodeId n, svm::PageId p) {
  auto& v = per_node_[static_cast<std::size_t>(n)];
  const auto idx = static_cast<std::size_t>(p);
  if (idx >= v.size()) v.resize(idx + 1);
  return v[idx];
}

Checker::BarrierEpoch& Checker::epoch_at(std::uint64_t e) {
  const auto idx = static_cast<std::size_t>(e - epoch_base_);
  while (idx >= epochs_.size()) {
    epochs_.push_back(BarrierEpoch{svm::VClock(nodes_), 0, 0});
  }
  return epochs_[idx];
}

void Checker::add(Kind k, Cycles t, NodeId n, svm::PageId page,
                  std::string detail) {
  ++violation_count_;
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back(Violation{k, t, n, page, std::move(detail)});
  }
}

void Checker::on_debug_write(svm::GlobalAddr a, const void* src,
                             std::uint64_t bytes) {
  const std::uint32_t pb = space_->page_bytes();
  const auto* in = static_cast<const std::byte*>(src);
  std::uint64_t done = 0;
  while (done < bytes) {
    const svm::GlobalAddr at = a + done;
    const svm::PageId p = at / pb;
    const std::uint32_t off = static_cast<std::uint32_t>(at % pb);
    const std::uint64_t chunk = std::min<std::uint64_t>(bytes - done, pb - off);
    PageShadow& sh = shadow(p);
    std::memcpy(sh.data.data() + off, in + done, chunk);
    // Initialization data is visible to everyone; stamp every touched word.
    for (std::size_t w = off / kWordBytes;
         w <= (off + chunk - 1) / kWordBytes; ++w) {
      sh.meta[w] = WordMeta{0, kInitWriter};
    }
    done += chunk;
  }
}

void Checker::on_read(Cycles now, NodeId n, const svm::VClock& vc,
                      svm::GlobalAddr a, const std::byte* observed,
                      std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint32_t pb = space_->page_bytes();
  const svm::PageId p = a / pb;
  PageShadow& sh = shadow(p);
  const svm::GlobalAddr end = a + bytes;
  for (svm::GlobalAddr w = a / kWordBytes; w <= (end - 1) / kWordBytes; ++w) {
    const svm::GlobalAddr wbase = w * kWordBytes;
    const WordMeta& m = sh.meta[(wbase % pb) / kWordBytes];
    if (!visible(n, vc, m)) {
      // The latest write of this word is unordered with this read under
      // happens-before: an intentional application race. Any value is
      // admissible, so the oracle abstains.
      ++racy_words_skipped_;
      continue;
    }
    ++checked_words_;
    const svm::GlobalAddr lo = std::max(a, wbase);
    const svm::GlobalAddr hi = std::min<svm::GlobalAddr>(end, wbase + kWordBytes);
    const std::byte* got = observed + (lo - a);
    const std::byte* want = sh.data.data() + (lo % pb);
    if (std::memcmp(got, want, hi - lo) != 0) {
      add(Kind::kStaleRead, now, n, p,
          fmt("addr=0x%llx word-writer=%d interval=%u reader-vc=%s got!=want "
              "(first byte 0x%02x vs 0x%02x)",
              static_cast<unsigned long long>(wbase), int{m.writer},
              unsigned{m.interval}, vc.to_string().c_str(),
              unsigned(got[0]), unsigned(want[0])));
    }
  }
}

void Checker::on_write(Cycles now, NodeId n, const svm::VClock& vc,
                       svm::GlobalAddr a, const std::byte* data,
                       std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint32_t pb = space_->page_bytes();
  const svm::PageId p = a / pb;
  PageShadow& sh = shadow(p);
  const svm::GlobalAddr end = a + bytes;
  // A page of the pending cut that is not demoted yet: the write joins the
  // closing interval (see on_flush_cut).
  const std::uint32_t interval = open_interval_[static_cast<std::size_t>(n)] -
                                 (node_page(n, p).closing ? 1 : 0);
  for (svm::GlobalAddr w = a / kWordBytes; w <= (end - 1) / kWordBytes; ++w) {
    const svm::GlobalAddr wbase = w * kWordBytes;
    WordMeta& m = sh.meta[(wbase % pb) / kWordBytes];
    // Two writes to the same word that are unordered under happens-before
    // conflict: diffs are word-grained, so the protocol may merge them in
    // either order (a data race even under release consistency).
    if (m.writer != kInitWriter && m.writer != n &&
        !vc.covers(m.writer, m.interval)) {
      add(Kind::kRacyWrite, now, n, p,
          fmt("addr=0x%llx prior-writer=%d interval=%u writer-vc=%s",
              static_cast<unsigned long long>(wbase), int{m.writer},
              unsigned{m.interval}, vc.to_string().c_str()));
    }
    m.interval = interval;
    m.writer = static_cast<std::int16_t>(n);
    ++words_written_;
  }
  std::memcpy(sh.data.data() + (a % pb), data, bytes);
}

void Checker::on_page_state(Cycles now, NodeId n, svm::PageId page,
                            svm::PageState from, svm::PageState to,
                            PageEvent ev) {
  using svm::PageState;
  ++transitions_;
  bool ok = false;
  switch (ev) {
    case PageEvent::kHomeMap:
      ok = from == PageState::kUnmapped && to == PageState::kReadOnly;
      break;
    case PageEvent::kFetchInstall:
      ok = (from == PageState::kUnmapped || from == PageState::kInvalid) &&
           to == PageState::kReadOnly;
      break;
    case PageEvent::kFetchInstallStale:
      ok = (from == PageState::kUnmapped || from == PageState::kInvalid) &&
           to == PageState::kInvalid;
      break;
    case PageEvent::kArmWrite:
      ok = from == PageState::kReadOnly && to == PageState::kReadWrite;
      break;
    case PageEvent::kFlushDemote:
      ok = from == PageState::kReadWrite && to == PageState::kReadOnly;
      break;
    case PageEvent::kInvalidate:
      ok = from == PageState::kReadOnly && to == PageState::kInvalid;
      break;
  }
  if (!ok) {
    add(Kind::kBadTransition, now, n, page,
        fmt("%s: %.*s -> %.*s",
            std::string(to_string(ev)).c_str(),
            int(state_name(from).size()), state_name(from).data(),
            int(state_name(to).size()), state_name(to).data()));
  }
  NodePage& np = node_page(n, page);
  np.closing = false;
  if (ev == PageEvent::kFetchInstall || ev == PageEvent::kFetchInstallStale) {
    if (ev == PageEvent::kFetchInstall && np.fetching &&
        np.fetch_notices > 0) {
      // A write notice arrived while the fetch was in flight; the reply may
      // predate the noticed write, so installing read-only would let stale
      // data be read as valid (the classic fetch/invalidate race).
      add(Kind::kResurrection, now, n, page,
          fmt("fetch installed read-only across %u invalidation notice(s)",
              unsigned{np.fetch_notices}));
    }
    np.fetching = false;
    np.fetch_notices = 0;
  }
}

void Checker::on_fetch_issue(NodeId n, svm::PageId page) {
  NodePage& np = node_page(n, page);
  np.fetching = true;
  np.fetch_notices = 0;
}

void Checker::on_inval_notice(NodeId n, svm::PageId page) {
  NodePage& np = node_page(n, page);
  ++np.notices;
  if (np.fetching) ++np.fetch_notices;
}

void Checker::on_diff_create(NodeId writer, svm::PageId page) {
  ++diffs_[{writer, page}].created;
}

void Checker::on_diff_apply(Cycles now, NodeId writer, svm::PageId page) {
  LifeTrack& t = diffs_[{writer, page}];
  ++t.applied;
  if (t.applied > t.created) {
    add(Kind::kDiffUnmatched, now, writer, page,
        fmt("applied=%llu > created=%llu",
            static_cast<unsigned long long>(t.applied),
            static_cast<unsigned long long>(t.created)));
  }
}

void Checker::on_update_emit(NodeId writer, svm::PageId page) {
  ++updates_[{writer, page}].created;
}

void Checker::on_update_apply(Cycles now, NodeId writer, svm::PageId page) {
  LifeTrack& t = updates_[{writer, page}];
  ++t.applied;
  if (t.applied > t.created) {
    add(Kind::kDiffUnmatched, now, writer, page,
        fmt("update applied=%llu > emitted=%llu",
            static_cast<unsigned long long>(t.applied),
            static_cast<unsigned long long>(t.created)));
  }
}

void Checker::on_flush_cut(NodeId n, std::span<const svm::PageId> pages) {
  ++open_interval_[static_cast<std::size_t>(n)];
  cut_pending_[static_cast<std::size_t>(n)] = true;
  auto& closing = closing_pages_[static_cast<std::size_t>(n)];
  closing.assign(pages.begin(), pages.end());
  for (svm::PageId p : closing) node_page(n, p).closing = true;
}

void Checker::on_vclock(Cycles now, NodeId n, const svm::VClock& vc) {
  svm::VClock& last = last_vc_[static_cast<std::size_t>(n)];
  if (!vc.covers(last)) {
    add(Kind::kClockRegression, now, n, 0,
        fmt("clock went backwards: %s then %s", last.to_string().c_str(),
            vc.to_string().c_str()));
  }
  // A node's own component counts *closed* intervals; the checker's cursor
  // (bumped at the flush cut) is exactly one ahead — except in the window
  // between the cut and the advance that closes it (the flush's async
  // propagation), where another processor of the node may merge at an
  // acquire and the own component legitimately lags by two.
  const std::uint32_t open = open_interval_[static_cast<std::size_t>(n)];
  const bool closed = vc.get(n) == open - 1;
  const bool mid_flush =
      cut_pending_[static_cast<std::size_t>(n)] && vc.get(n) == open - 2;
  if (closed && cut_pending_[static_cast<std::size_t>(n)]) {
    cut_pending_[static_cast<std::size_t>(n)] = false;
    auto& closing = closing_pages_[static_cast<std::size_t>(n)];
    for (svm::PageId p : closing) node_page(n, p).closing = false;
    closing.clear();
  }
  if (!closed && !mid_flush) {
    add(Kind::kClockRegression, now, n, 0,
        fmt("own component %u but open interval %u", unsigned{vc.get(n)},
            unsigned{open}));
  }
  last = vc;
}

void Checker::on_lock_release(Cycles now, NodeId n, int lock,
                              const svm::VClock& vc) {
  (void)now;
  (void)n;
  auto [it, inserted] = last_release_.try_emplace(lock, vc);
  if (!inserted) it->second = vc;
}

void Checker::on_lock_acquired(Cycles now, NodeId n, int lock,
                               const svm::VClock& vc) {
  auto it = last_release_.find(lock);
  if (it != last_release_.end() && !vc.covers(it->second)) {
    add(Kind::kLockHandoff, now, n, 0,
        fmt("lock %d acquired with vc=%s not covering last release vc=%s",
            lock, vc.to_string().c_str(), it->second.to_string().c_str()));
  }
}

void Checker::on_barrier_flush(Cycles now, NodeId n, const svm::VClock& vc) {
  (void)now;
  const std::uint64_t e = arrive_count_[static_cast<std::size_t>(n)]++;
  BarrierEpoch& ep = epoch_at(e);
  ep.merged.merge(vc);
  ++ep.arrived;
}

void Checker::on_barrier_exit(Cycles now, NodeId n, const svm::VClock& vc) {
  const std::uint64_t e = exit_count_[static_cast<std::size_t>(n)]++;
  BarrierEpoch& ep = epoch_at(e);
  ++ep.exited;
  if (ep.arrived < nodes_) {
    add(Kind::kBarrierHandoff, now, n, 0,
        fmt("epoch %llu exited with only %d/%d nodes arrived",
            static_cast<unsigned long long>(e), ep.arrived, nodes_));
  } else if (!vc.covers(ep.merged)) {
    add(Kind::kBarrierHandoff, now, n, 0,
        fmt("epoch %llu exit vc=%s does not cover merged vc=%s",
            static_cast<unsigned long long>(e), vc.to_string().c_str(),
            ep.merged.to_string().c_str()));
  }
  while (!epochs_.empty() && epochs_.front().exited >= nodes_) {
    epochs_.pop_front();
    ++epoch_base_;
  }
}

void Checker::finalize(Cycles end_time) {
  if (finalized_) return;
  finalized_ = true;
  for (const auto& [key, t] : diffs_) {
    if (t.applied < t.created) {
      add(Kind::kDiffLost, end_time, key.first, key.second,
          fmt("created=%llu applied=%llu",
              static_cast<unsigned long long>(t.created),
              static_cast<unsigned long long>(t.applied)));
    }
  }
  for (const auto& [key, t] : updates_) {
    if (t.applied < t.created) {
      add(Kind::kUpdateLost, end_time, key.first, key.second,
          fmt("emitted=%llu applied=%llu",
              static_cast<unsigned long long>(t.created),
              static_cast<unsigned long long>(t.applied)));
    }
  }
  // Every word whose writing interval has been flushed must match the
  // authoritative home copy (words from still-open intervals are only
  // guaranteed locally and are skipped).
  const std::uint32_t pb = space_->page_bytes();
  for (std::size_t pi = 0; pi < pages_.size(); ++pi) {
    const auto& sh = pages_[pi];
    if (!sh) continue;
    const auto page = static_cast<svm::PageId>(pi);
    if (page >= space_->page_count()) continue;
    const NodeId home = space_->home_of(page);
    if (home < 0 || !space_->has_copy(home, page)) continue;
    const svm::PageCopy& hc = space_->copy(home, page);
    if (hc.data.size() != pb) continue;
    std::uint64_t bad_words = 0;
    svm::GlobalAddr first_bad = 0;
    for (std::size_t w = 0; w < sh->meta.size(); ++w) {
      const WordMeta& m = sh->meta[w];
      if (m.writer != kInitWriter &&
          m.interval >
              last_vc_[static_cast<std::size_t>(m.writer)].get(m.writer)) {
        continue;  // interval still open; home copy need not have it yet
      }
      if (std::memcmp(hc.data.data() + w * kWordBytes,
                      sh->data.data() + w * kWordBytes, kWordBytes) != 0) {
        if (bad_words == 0) first_bad = page * pb + w * kWordBytes;
        ++bad_words;
      }
    }
    if (bad_words > 0) {
      add(Kind::kFinalDivergence, end_time, home, page,
          fmt("home copy differs from shadow in %llu word(s), first at "
              "addr=0x%llx",
              static_cast<unsigned long long>(bad_words),
              static_cast<unsigned long long>(first_bad)));
    }
  }
}

void Checker::report(std::string_view run_name, std::FILE* out) const {
  std::fprintf(out,
               "svmsim-check: %llu violation(s) in run '%.*s'"
               " (mutation=%.*s, checked-words=%llu, racy-skipped=%llu,"
               " transitions=%llu)\n",
               static_cast<unsigned long long>(violation_count_),
               int(run_name.size()), run_name.data(),
               int(to_string(mutation_).size()), to_string(mutation_).data(),
               static_cast<unsigned long long>(checked_words_),
               static_cast<unsigned long long>(racy_words_skipped_),
               static_cast<unsigned long long>(transitions_));
  for (const Violation& v : violations_) {
    std::fprintf(out, "  [%.*s] t=%llu node=%d page=%llu %s\n",
                 int(to_string(v.kind).size()), to_string(v.kind).data(),
                 static_cast<unsigned long long>(v.time), v.node,
                 static_cast<unsigned long long>(v.page), v.detail.c_str());
  }
  if (violation_count_ > violations_.size()) {
    std::fprintf(out, "  ... %llu more not recorded (cap %zu)\n",
                 static_cast<unsigned long long>(violation_count_ -
                                                 violations_.size()),
                 kMaxRecorded);
  }
}

}  // namespace svmsim::check

#include "explore/explorer.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "apps/registry.hpp"
#include "check/checker.hpp"
#include "engine/choice.hpp"
#include "net/wire_key.hpp"
#include "svm/vclock.hpp"

namespace svmsim::explore {

namespace {

/// One logged free decision: everything the driver needs to fork siblings.
struct FreeDecision {
  std::size_t index;  ///< absolute decision index (offset into `taken`)
  ChoiceKind kind;
  std::vector<std::uint64_t> alts;      ///< branchable alternative values
  std::vector<std::uint64_t> sleep_at;  ///< live sleep snapshot (wire keys)
};

}  // namespace

struct Explorer::RunLog {
  Schedule taken;                   ///< every decision, forced and free
  std::vector<FreeDecision> free;   ///< branch points (open portion only)
  std::uint64_t sleep_suppressed = 0;
  std::uint64_t independent_suppressed = 0;
  std::uint64_t hb_suppressed = 0;
  /// True once the run executed an action its sleep set suppressed —
  /// either a choice point found every co-enabled choice asleep, or a
  /// slept delivery fired solo (no choice point: nothing else co-pended).
  /// Either way the continuation only re-derives already-explored traces,
  /// so decisions past that point are not recorded as branch points.
  bool closed = false;
};

namespace {

/// The per-run ChoiceHook: replays a forced prefix, then takes engine
/// defaults while logging alternatives and maintaining the sleep set.
class DriverHook final : public engine::ChoiceHook {
 public:
  DriverHook(const Schedule& forced, const ExploreConfig& xcfg,
             std::vector<std::uint64_t> sleep, Explorer::RunLog& log)
      : forced_(forced), xcfg_(xcfg), sleep_(std::move(sleep)), log_(log) {}

  void on_attach(check::Checker* checker) override { checker_ = checker; }

  [[nodiscard]] bool diverged() const noexcept { return diverged_; }
  [[nodiscard]] const std::string& divergence() const noexcept {
    return diverge_msg_;
  }

  std::size_t choose_wire(const engine::WireChoice* alts,
                          std::size_t n) override {
    const std::size_t d = log_.taken.size();
    if (d < forced_.size()) {
      const Choice& c = forced_[d];
      if (c.kind != ChoiceKind::kWire) {
        return diverge(d, c, "engine offered a wire decision"), 0;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (alts[i].key == c.value) {
          take(c);
          return i;
        }
      }
      return diverge(d, c, "forced wire key not co-enabled"), 0;
    }
    if (log_.closed) {
      take({ChoiceKind::kWire, alts[0].key});
      return 0;
    }
    // Default: the first channel head the sleep set does not suppress.
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!slept(alts[i].key)) {
        pick = i;
        break;
      }
    }
    if (pick == n) {
      // Every co-enabled choice was already explored from this state by an
      // earlier sibling: the subtree is covered (classic sleep sets).
      log_.closed = true;
      take({ChoiceKind::kWire, alts[0].key});
      return 0;
    }
    const std::uint64_t chosen = alts[pick].key;
    FreeDecision fd{d, ChoiceKind::kWire, {}, sleep_};
    for (std::size_t i = 0; i < n; ++i) {
      if (i == pick) continue;
      const std::uint64_t k = alts[i].key;
      if (slept(k)) {
        ++log_.sleep_suppressed;
        continue;
      }
      if (xcfg_.branching == Branching::kDependent) {
        if (net::wire_key_dst(k) != net::wire_key_dst(chosen)) {
          ++log_.independent_suppressed;
          continue;
        }
        if (xcfg_.hb_prune && checker_ != nullptr && hb_ordered(k, chosen)) {
          ++log_.hb_suppressed;
          continue;
        }
      }
      fd.alts.push_back(k);
    }
    if (!fd.alts.empty()) log_.free.push_back(std::move(fd));
    take({ChoiceKind::kWire, chosen});
    return pick;
  }

  int choose_victim(NodeId node, int nprocs, int preferred) override {
    const std::size_t d = log_.taken.size();
    if (d < forced_.size()) {
      const Choice& c = forced_[d];
      const int idx = static_cast<int>(c.value & 0xffffffffull);
      if (c.kind != ChoiceKind::kVictim ||
          static_cast<NodeId>(c.value >> 32) != node || idx >= nprocs) {
        return diverge(d, c, "engine offered a victim decision"), preferred;
      }
      take(c);
      return idx;
    }
    if (!log_.closed && xcfg_.irq_choices) {
      FreeDecision fd{d, ChoiceKind::kVictim, {}, sleep_};
      for (int i = 0; i < nprocs; ++i) {
        if (i != preferred) fd.alts.push_back(pack(node, i));
      }
      if (!fd.alts.empty()) log_.free.push_back(std::move(fd));
    }
    take({ChoiceKind::kVictim, pack(node, preferred)});
    return preferred;
  }

  void on_wire_fire(std::uint64_t key) override {
    // Prefix fires re-enact history the branch snapshot already reflects;
    // only the free region maintains the sleep set. A slept key firing
    // means this run is re-deriving a sibling's subtree: close it. Any
    // other fire is dependent with (and therefore wakes) sleeping entries
    // bound for the same node.
    if (log_.taken.size() < forced_.size() || log_.closed) return;
    if (slept(key)) {
      log_.closed = true;
      return;
    }
    const NodeId dst = net::wire_key_dst(key);
    std::erase_if(sleep_, [dst](std::uint64_t k) {
      return net::wire_key_dst(k) == dst;
    });
  }

  bool choose_poll_slip(NodeId node) override {
    const std::size_t d = log_.taken.size();
    if (d < forced_.size()) {
      const Choice& c = forced_[d];
      if (c.kind != ChoiceKind::kPollSlip ||
          static_cast<NodeId>(c.value >> 32) != node) {
        return diverge(d, c, "engine offered a poll-slip decision"), false;
      }
      take(c);
      return (c.value & 1ull) != 0;
    }
    if (!log_.closed && xcfg_.irq_choices) {
      log_.free.push_back(
          {d, ChoiceKind::kPollSlip, {pack(node, 1)}, sleep_});
    }
    take({ChoiceKind::kPollSlip, pack(node, 0)});
    return false;
  }

 private:
  static std::uint64_t pack(NodeId node, int v) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 32) |
           static_cast<std::uint32_t>(v);
  }

  [[nodiscard]] bool slept(std::uint64_t key) const {
    return std::find(sleep_.begin(), sleep_.end(), key) != sleep_.end();
  }

  /// True when the two deliveries' *sending* nodes are causally ordered at
  /// decision time: the alternative order cannot arise from commuting
  /// concurrent events, so the branch is redundant.
  [[nodiscard]] bool hb_ordered(std::uint64_t a, std::uint64_t b) const {
    const svm::VClock ca = checker_->node_clock(net::wire_key_src(a));
    const svm::VClock cb = checker_->node_clock(net::wire_key_src(b));
    return !(ca == cb) && (ca.covers(cb) || cb.covers(ca));
  }

  void take(Choice c) {
    // Sleep-set propagation (free decisions only — replaying the forced
    // prefix must not disturb the sleep set the branch constructed, since
    // its entries were already filtered against the whole prefix): a
    // delivery is dependent with everything bound for the same node, so
    // executing it wakes (drops) the entries it does not commute with.
    // Victim and poll decisions touch their node's dispatch state the same
    // way. After a dependent action the slept trace is no longer provably
    // covered, hence the wake.
    if (log_.taken.size() >= forced_.size()) {
      const NodeId dst = c.kind == ChoiceKind::kWire
                             ? net::wire_key_dst(c.value)
                             : static_cast<NodeId>(c.value >> 32);
      std::erase_if(sleep_, [dst](std::uint64_t k) {
        return net::wire_key_dst(k) == dst;
      });
    }
    log_.taken.push_back(c);
  }

  void diverge(std::size_t d, const Choice& want, const char* what) {
    if (diverged_) return;
    diverged_ = true;
    std::ostringstream os;
    os << "schedule divergence at decision " << d << ": forced "
       << to_string(want.kind) << "/0x" << std::hex << want.value << std::dec
       << ", but " << what;
    diverge_msg_ = os.str();
  }

  const Schedule& forced_;
  const ExploreConfig& xcfg_;
  std::vector<std::uint64_t> sleep_;
  Explorer::RunLog& log_;
  check::Checker* checker_ = nullptr;
  bool diverged_ = false;
  std::string diverge_msg_;
};

}  // namespace

Explorer::Explorer(std::string app, apps::Scale scale, SimConfig cfg,
                   ExploreConfig xcfg)
    : app_(std::move(app)),
      scale_(scale),
      cfg_(std::move(cfg)),
      xcfg_(xcfg),
      fingerprint_(config_fingerprint(app_, cfg_)) {}

RunOutcome Explorer::run_internal(const Schedule& forced,
                                  const std::vector<std::uint64_t>& sleep,
                                  RunLog* log, ExploreResult* tally) {
  RunLog local;
  RunLog& lg = log != nullptr ? *log : local;
  DriverHook hook(forced, xcfg_, sleep, lg);
  RunOutcome out;
  // A fresh application instance per run: stateless re-execution from t=0.
  const std::unique_ptr<apps::Application> app = apps::make_app(app_, scale_);
  try {
    out.result = run(*app, cfg_, Cycles{1} << 42, &hook);
  } catch (const std::invalid_argument&) {
    throw;  // a config the Machine rejects: misuse, not a run outcome
  } catch (const std::exception& e) {
    out.error = true;
    out.error_message = e.what();
  }
  if (hook.diverged()) throw std::runtime_error(hook.divergence());
  if (lg.taken.size() < forced.size()) {
    throw std::runtime_error(
        "schedule divergence: run consumed " +
        std::to_string(lg.taken.size()) + " of " +
        std::to_string(forced.size()) + " forced choices");
  }
  out.schedule = lg.taken;
  if (tally != nullptr) {
    tally->decisions += lg.taken.size();
    tally->sleep_pruned += lg.sleep_suppressed;
    tally->independent_pruned += lg.independent_suppressed;
    tally->hb_pruned += lg.hb_suppressed;
    tally->max_depth = std::max<std::uint64_t>(tally->max_depth,
                                               lg.taken.size());
  }
  return out;
}

RunOutcome Explorer::run_schedule(const Schedule& forced) {
  return run_internal(forced, {}, nullptr, nullptr);
}

ExploreResult Explorer::explore() {
  ExploreResult res;
  struct Pending {
    Schedule prefix;
    std::vector<std::uint64_t> sleep;
  };
  std::vector<Pending> stack;
  stack.push_back({{}, {}});
  while (!stack.empty()) {
    if (res.states >= xcfg_.max_states) {
      res.budget_exhausted = true;
      break;
    }
    const Pending cur = std::move(stack.back());
    stack.pop_back();
    RunLog log;
    const RunOutcome out = run_internal(cur.prefix, cur.sleep, &log, &res);
    ++res.states;
    if (log.closed) ++res.redundant;
    const bool violating =
        out.error || !out.result.validated || out.result.check_violations > 0;
    if (violating) {
      ++res.violations;
      if (res.violating.size() < xcfg_.max_violations_kept) {
        res.violating.push_back(out.schedule);
      }
      if (xcfg_.stop_on_violation) break;
    }
    // Fork children. Reverse push order makes the stack pop branches in
    // (decision, alternative) order, so exploration is deterministic.
    for (auto it = log.free.rbegin(); it != log.free.rend(); ++it) {
      const FreeDecision& fd = *it;
      for (std::size_t i = fd.alts.size(); i-- > 0;) {
        Pending child;
        child.prefix.assign(
            out.schedule.begin(),
            out.schedule.begin() + static_cast<std::ptrdiff_t>(fd.index));
        child.prefix.push_back({fd.kind, fd.alts[i]});
        // Child sleep set (Godefroid): start from the decision's snapshot
        // plus — for wire decisions — the default choice and every earlier
        // sibling (their subtrees are explored before this child runs),
        // then drop entries *dependent* with the alternative being taken:
        // after a same-destination action a slept trace is no longer
        // provably covered.
        std::vector<std::uint64_t> pool = fd.sleep_at;
        if (fd.kind == ChoiceKind::kWire) {
          pool.push_back(out.schedule[fd.index].value);
          for (std::size_t j = 0; j < i; ++j) pool.push_back(fd.alts[j]);
        }
        const NodeId adst = fd.kind == ChoiceKind::kWire
                                ? net::wire_key_dst(fd.alts[i])
                                : static_cast<NodeId>(fd.alts[i] >> 32);
        for (std::uint64_t k : pool) {
          if (net::wire_key_dst(k) != adst) child.sleep.push_back(k);
        }
        ++res.branches;
        stack.push_back(std::move(child));
      }
    }
  }
  return res;
}

std::uint64_t config_fingerprint(const std::string& app,
                                 const SimConfig& cfg) {
  std::ostringstream os;
  os << app << '\0' << cfg.comm.describe()
     << " scheme=" << static_cast<int>(cfg.comm.interrupt_scheme)
     << " poll=" << cfg.comm.poll_interval
     << " pollchk=" << cfg.comm.poll_check_cost
     << " topo=" << cfg.topology.to_string()
     << " wire=" << cfg.arch.wire_latency_cycles
     << " check=" << (cfg.check.enabled ? 1 : 0);
  return fnv1a(os.str());
}

}  // namespace svmsim::explore

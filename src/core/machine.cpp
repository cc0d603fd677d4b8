#include "core/machine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "check/checker.hpp"
#include "engine/task.hpp"
#include "memsys/cache.hpp"
#include "trace/trace.hpp"

namespace svmsim {

namespace {

/// Returns `cfg` after checking its architecture and node shape, so a bad
/// config throws before any member is built from it.
const SimConfig& checked(const SimConfig& cfg) {
  if (const std::string err = cfg.arch.validate(); !err.empty()) {
    throw std::invalid_argument("arch: " + err);
  }
  if (cfg.comm.total_procs % cfg.comm.procs_per_node != 0) {
    throw std::invalid_argument(
        "total_procs must be a multiple of procs_per_node");
  }
  // The shared address space splits addresses with a shift and a mask.
  if (!std::has_single_bit(cfg.comm.page_bytes)) {
    throw std::invalid_argument("page_bytes must be a nonzero power of two");
  }
  return cfg;
}

}  // namespace

Machine::Machine(const SimConfig& cfg)
    : cfg_(checked(cfg)),
      parts_(engine::effective_partitions(cfg.par_cores,
                                          cfg.comm.node_count())),
      sims_(static_cast<std::size_t>(parts_)),
      registries_(static_cast<std::size_t>(parts_)),
      stats_(cfg.comm.total_procs),
      part_counters_(static_cast<std::size_t>(parts_)),
      space_(cfg.comm.node_count(), cfg.comm.page_bytes,
             std::min(memsys::Cache::tag_reach(cfg.arch.l1),
                      memsys::Cache::tag_reach(cfg.arch.l2))),
      shared_(sims_.front(), cfg.comm.node_count(), kMaxLocks),
      network_(sims_.front(), cfg_.arch) {
  if (parts_ > 1 && cfg_.trace.enabled) {
    // A trace is one global event stream in emission order; partitions
    // emitting concurrently would interleave nondeterministically.
    throw std::invalid_argument("tracing requires par_cores == 1");
  }
  for (int p = 0; p < parts_; ++p) {
    sims_[static_cast<std::size_t>(p)].set_counters(&partition_counters(p));
  }
  if (cfg_.trace.enabled) {
    tracer_ = std::make_unique<trace::Tracer>(
        cfg_.trace, cfg_.comm.total_procs, cfg_.comm.node_count());
    sims_.front().set_tracer(tracer_.get());
  }
  if (cfg_.check.enabled) {
    checker_ = std::make_unique<check::Checker>(cfg_.check, space_);
    for (auto& s : sims_) s.set_checker(checker_.get());
  }
  for (int p = 0; p < parts_; ++p) {
    pools_.emplace_back(sims_[static_cast<std::size_t>(p)]);
  }

  const int nodes = cfg_.comm.node_count();
  if (parts_ > 1) {
    // Shared structures that partitions touch concurrently take their locks;
    // everything else is partition-owned (see docs/engine.md, "PDES mode").
    network_.set_thread_safe();
    space_.set_thread_safe();
    for (auto& pl : pools_) pl.set_thread_safe();

    channels_.resize(static_cast<std::size_t>(parts_));
    for (auto& row : channels_) {
      row = std::vector<engine::TimedChannel<net::Network::Action>>(
          static_cast<std::size_t>(parts_));
    }
    std::vector<std::vector<net::Network::Route>> routes(
        static_cast<std::size_t>(nodes),
        std::vector<net::Network::Route>(static_cast<std::size_t>(nodes)));
    for (NodeId s = 0; s < nodes; ++s) {
      const auto ps = static_cast<std::size_t>(partition_of_node(s));
      for (NodeId d = 0; d < nodes; ++d) {
        const auto pd = static_cast<std::size_t>(partition_of_node(d));
        auto& r = routes[static_cast<std::size_t>(s)]
                        [static_cast<std::size_t>(d)];
        if (ps == pd) {
          r.queue = &sims_[pd].queue();
        } else {
          r.channel = &channels_[ps][pd];
        }
      }
    }
    network_.set_routes(std::move(routes));
  }

  // Null for the contention-free crossbar. Throws std::invalid_argument
  // when the spec does not fit `nodes` (bench CLIs pre-check with
  // topo::fits and exit kExitBadTopology). Each link's FIFO server lives on
  // the simulator of the partition that owns the link, so hop events touch
  // it single-threaded.
  topo_ = topo::make_topology(
      cfg_.topology, cfg_.arch, nodes, [this](NodeId n) -> engine::Simulator& {
        return sims_[static_cast<std::size_t>(partition_of_node(n))];
      });
  if (topo_ != nullptr) {
    network_.set_topology(topo_.get());
    if (parts_ > 1) {
      std::vector<int> node_part(static_cast<std::size_t>(nodes));
      for (NodeId n = 0; n < nodes; ++n) {
        node_part[static_cast<std::size_t>(n)] = partition_of_node(n);
      }
      network_.set_partition_map(std::move(node_part), parts_);
    }
  }

  nodes_.reserve(static_cast<std::size_t>(nodes));
  agents_.reserve(static_cast<std::size_t>(nodes));
  for (NodeId n = 0; n < nodes; ++n) {
    const int p = partition_of_node(n);
    // NIC service loops spawned in the Node constructor must register in
    // their partition's frame registry: they complete (or are torn down) on
    // that partition's thread.
    engine::ScopedFrameRegistry scope(partition_registry(p));
    nodes_.push_back(std::make_unique<Node>(
        sims_[static_cast<std::size_t>(p)], cfg_, n, cfg_.comm.procs_per_node,
        n * cfg_.comm.procs_per_node, network_, stats_));
  }
  for (NodeId n = 0; n < nodes; ++n) {
    const int p = partition_of_node(n);
    engine::ScopedFrameRegistry scope(partition_registry(p));
    Node& nd = *nodes_[static_cast<std::size_t>(n)];
    std::unique_ptr<svm::SvmAgent> agent;
    if (cfg_.comm.protocol == Protocol::kAURC) {
      agent = std::make_unique<svm::AurcAgent>(
          sims_[static_cast<std::size_t>(p)], cfg_, n,
          cfg_.comm.procs_per_node, space_, shared_,
          pools_[static_cast<std::size_t>(p)], nd.comm());
    } else {
      agent = std::make_unique<svm::HlrcAgent>(
          sims_[static_cast<std::size_t>(p)], cfg_, n,
          cfg_.comm.procs_per_node, space_, shared_,
          pools_[static_cast<std::size_t>(p)], nd.comm());
    }
    agent->install();
    nd.wire(*agent);
    agents_.push_back(std::move(agent));
  }
}

std::uint64_t Machine::events_fired() {
  std::uint64_t total = 0;
  for (auto& s : sims_) total += s.queue().events_fired();
  return total;
}

bool Machine::run_parallel(Cycles max_cycles) {
  if (parts_ == 1) return sims_.front().run_until(max_cycles);

  std::vector<engine::EventQueue*> queues;
  queues.reserve(static_cast<std::size_t>(parts_));
  for (auto& s : sims_) queues.push_back(&s.queue());

  // Saved current_slot per partition, restored by worker_end (partition 0
  // runs on the calling thread, whose slot must survive the run).
  std::vector<engine::FrameRegistry*> prev_slot(
      static_cast<std::size_t>(parts_), nullptr);

  // Adaptive-window inputs: the host/NI cost floor between a posting event
  // and its first packet, and each partition's contiguous node range
  // (partition_of is monotone) for the NIC send-pipeline scan.
  const Cycles tx_floor = net::Network::min_tx_cycles(cfg_.arch, cfg_.comm);
  std::vector<std::pair<NodeId, NodeId>> node_range(
      static_cast<std::size_t>(parts_), {0, 0});
  for (NodeId n = 0; n < node_count(); ++n) {
    auto& [begin, end] = node_range[static_cast<std::size_t>(
        partition_of_node(n))];
    if (end == 0) begin = n;
    end = n + 1;
  }

  engine::WindowDriver::Hooks hooks;
  hooks.publish = [this, tx_floor, &node_range](int p) {
    engine::WindowDriver::Published pub;
    // Seal this window's outgoing batches; their minimum timestamp is this
    // partition's in-flight contribution to the barrier's reductions.
    for (int d = 0; d < parts_; ++d) {
      if (d == p) continue;
      const Cycles m =
          channels_[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)]
              .seal();
      if (m < pub.in_flight) pub.in_flight = m;
    }
    // Next cross-partition send. A send not yet posted must first be
    // posted by some event and then pay the full tx pipeline floor:
    // head-of-queue + tx_floor covers every such message. A remote message
    // already inside a NIC (posted but not fully on the wire) is bounded by
    // that NIC's live launch bound instead — the pipeline stage plus the
    // occupied resource's busy_until, plus a full pipeline per queued
    // message ahead of the first remote one (next_remote_tx_lb). A loose
    // bound only narrows the window; the WindowDriver clamps it to the
    // one-lookahead floor.
    // Contended-topology caveat: while this partition's queue holds
    // topology wire events (mid-route hops), a hop firing at head-of-queue
    // time can push a cross-partition record just min_latency ahead — far
    // inside tx_floor — so the floor must drop to zero until they drain.
    const Cycles floor = network_.wire_pending(p) ? 0 : tx_floor;
    Cycles send = sims_[static_cast<std::size_t>(p)].next_send_bound(floor);
    const auto [begin, end] = node_range[static_cast<std::size_t>(p)];
    for (NodeId n = begin; n < end; ++n) {
      Node& nd = *nodes_[static_cast<std::size_t>(n)];
      for (int k = 0; k < nd.nic_count(); ++k) {
        const net::Nic& nic = nd.nic(k);
        if (nic.remote_tx_pending()) {
          const Cycles lb = nic.next_remote_tx_lb();
          if (lb < send) send = lb;
        }
      }
    }
    pub.next_send = send;
    return pub;
  };
  hooks.drain = [this](int p) {
    auto& q = sims_[static_cast<std::size_t>(p)].queue();
    for (int s = 0; s < parts_; ++s) {
      if (s == p) continue;
      channels_[static_cast<std::size_t>(s)][static_cast<std::size_t>(p)]
          .drain([this, p, &q](auto& batch) {
            // In contended-topology mode every channel record is a wire
            // event (hop or delivery); count them so the publish hook can
            // drop its send floor while any are pending (note_drained is a
            // no-op otherwise).
            network_.note_drained(p, batch.size());
            q.schedule_wire_batch(batch);
          });
    }
  };
  hooks.worker_begin = [this, &prev_slot](int p) {
    auto& reg = registries_[static_cast<std::size_t>(p)];
    reg.bind_to_this_thread();
    prev_slot[static_cast<std::size_t>(p)] =
        std::exchange(engine::FrameRegistry::current_slot(), &reg);
  };
  hooks.worker_end = [&prev_slot](int p) {
    engine::FrameRegistry::current_slot() =
        prev_slot[static_cast<std::size_t>(p)];
  };

  engine::WindowDriver driver(std::move(queues), network_.min_latency(),
                              std::move(hooks));
  bool drained = false;
  try {
    drained = driver.run(max_cycles);
  } catch (...) {
    windows_ += driver.windows();
    for (auto& r : registries_) r.bind_to_this_thread();
    throw;
  }
  windows_ += driver.windows();
  // Quiescent: workers have joined. Take partition state back so teardown
  // (and any further serial use) happens on this thread.
  for (auto& r : registries_) r.bind_to_this_thread();
  for (auto& c : part_counters_) {
    stats_.counters() += c;
    c = Counters{};
  }
  return drained;
}

void Machine::finalize_stats() {
  if (topo_ == nullptr) return;
  std::vector<LinkUse> links;
  links.reserve(topo_->link_count());
  for (std::size_t i = 0; i < topo_->link_count(); ++i) {
    const topo::Link& L = topo_->link(i);
    LinkUse u;
    u.id = static_cast<std::int32_t>(i);
    u.owner = L.owner;
    u.kind = static_cast<std::int8_t>(L.kind);
    u.grants = L.server.grants();
    u.busy = L.server.busy_cycles();
    u.wait = L.wait_cycles;
    u.bytes = L.bytes;
    links.push_back(u);
  }
  stats_.set_links(std::move(links));
}

void Machine::debug_write(svm::GlobalAddr a, const void* src,
                          std::uint64_t bytes) {
  space_.debug_write(a, src, bytes);
  if (checker_) checker_->on_debug_write(a, src, bytes);
}

Machine::~Machine() {
  // Scheduled closures (e.g. in-flight transmits of an aborted run) can hold
  // pooled references into the protocol pools; drop them — queues first,
  // then in-flight cross-partition channel records — before the pools go
  // away. Then destroy still-suspended coroutines (NIC service loops,
  // processes blocked on a sync object in an abandoned run) so their frames
  // release pooled refs and frame memory while the objects they reference
  // are still alive.
  for (auto& s : sims_) s.queue().clear();
  for (auto& row : channels_) {
    for (auto& ch : row) ch.clear();
  }
  for (auto& r : registries_) {
    r.bind_to_this_thread();
    r.destroy_all();
  }
}

}  // namespace svmsim

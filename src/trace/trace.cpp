#include "trace/trace.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace svmsim::trace {

[[nodiscard]] std::string_view to_string(Category c) noexcept {
  switch (c) {
    case Category::kPage: return "page";
    case Category::kLock: return "lock";
    case Category::kNet: return "net";
    case Category::kIrq: return "irq";
    case Category::kSched: return "sched";
    case Category::kCount: break;
  }
  return "?";
}

std::optional<std::uint32_t> parse_mask(std::string_view csv) {
  if (csv.empty() || csv == "all") return kAllCategories;
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string_view item = csv.substr(
        pos, comma == std::string_view::npos ? csv.size() - pos : comma - pos);
    if (!item.empty()) {
      bool found = false;
      for (int i = 0; i < kCategories; ++i) {
        if (item == to_string(static_cast<Category>(i))) {
          mask |= 1u << i;
          found = true;
          break;
        }
      }
      if (!found) return std::nullopt;
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return mask;
}

std::string mask_to_string(std::uint32_t mask) {
  if ((mask & kAllCategories) == kAllCategories) return "all";
  std::string out;
  for (int i = 0; i < kCategories; ++i) {
    if (mask & (1u << i)) {
      if (!out.empty()) out += ',';
      out += to_string(static_cast<Category>(i));
    }
  }
  return out;
}

std::string_view to_string(Event e) noexcept {
  switch (e) {
    case Event::kPageFault: return "page-fault";
    case Event::kPageFetch: return "page-fetch";
    case Event::kPageInstall: return "page-install";
    case Event::kTwinCreate: return "twin-create";
    case Event::kDiffCreate: return "diff-create";
    case Event::kDiffApply: return "diff-apply";
    case Event::kPageInval: return "page-inval";
    case Event::kWriteNotices: return "write-notices";
    case Event::kLockLocal: return "lock-local";
    case Event::kLockRequest: return "lock-request";
    case Event::kLockGrant: return "lock-grant";
    case Event::kLockRecall: return "lock-recall";
    case Event::kTokenReturn: return "token-return";
    case Event::kBarrierEnter: return "barrier-enter";
    case Event::kBarrierExit: return "barrier-exit";
    case Event::kMsgSend: return "msg-send";
    case Event::kMsgDeliver: return "msg-deliver";
    case Event::kPacketTx: return "packet-tx";
    case Event::kNiTx: return "ni-tx";
    case Event::kNiRx: return "ni-rx";
    case Event::kIoBus: return "io-bus";
    case Event::kUpdateSend: return "update-send";
    case Event::kNiOverflow: return "ni-overflow";
    case Event::kIrqIssue: return "irq-issue";
    case Event::kPollDeliver: return "poll-deliver";
    case Event::kHandlerSpan: return "handler";
    case Event::kTimeSpan: return "time-span";
    case Event::kLinkHop: return "link-hop";
    case Event::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Counters serialization (the whole-sim oracle contract)
// ---------------------------------------------------------------------------

std::array<std::uint64_t, kCounterCount> counters_to_array(
    const Counters& c) noexcept {
  std::array<std::uint64_t, kCounterCount> a{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = c.*kCounterFields[i].member;
  }
  return a;
}

Counters counters_from_array(
    const std::array<std::uint64_t, kCounterCount>& a) noexcept {
  Counters c;
  for (std::size_t i = 0; i < a.size(); ++i) {
    c.*kCounterFields[i].member = a[i];
  }
  return c;
}

std::string_view counter_name(int i) noexcept {
  return i >= 0 && i < kCounterCount
             ? kCounterFields[static_cast<std::size_t>(i)].name
             : "?";
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

std::string build_provenance() {
  std::string s = "svmsim ";
#ifdef SVMSIM_GIT_DESCRIBE
  s += SVMSIM_GIT_DESCRIBE;
#else
  s += "unknown";
#endif
#ifdef SVMSIM_SANITIZE_FLAGS
  s += " sanitize=";
  s += (SVMSIM_SANITIZE_FLAGS[0] != '\0') ? SVMSIM_SANITIZE_FLAGS : "off";
#elif defined(SVMSIM_POOL_PARANOID)
  s += " sanitize=on";
#else
  s += " sanitize=off";
#endif
  return s;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

// Recycled chunk storage, mirroring the engine's frame-pool discipline: a
// Tracer returns its chunks here on destruction and the next traced run on
// this thread reuses them, so repeated traced runs (sweeps) reach a
// zero-allocation steady state. Sanitize builds skip recycling so ASan sees
// true object lifetimes.
std::vector<std::unique_ptr<Tracer::Chunk>>& Tracer::freelist() {
  thread_local std::vector<std::unique_ptr<Chunk>> fl;
  return fl;
}

Tracer::Tracer(const Config& cfg, int procs, int nodes)
    : mask_(cfg.mask), path_(cfg.path), procs_(procs), nodes_(nodes) {}

Tracer::~Tracer() {
#ifndef SVMSIM_POOL_PARANOID
  auto& fl = freelist();
  for (auto& c : chunks_) {
    c->n = 0;
    fl.push_back(std::move(c));
  }
#endif
}

void Tracer::next_chunk() {
#ifndef SVMSIM_POOL_PARANOID
  auto& fl = freelist();
  if (!fl.empty()) {
    chunks_.push_back(std::move(fl.back()));
    fl.pop_back();
    cur_ = chunks_.back().get();
    cur_->n = 0;
    return;
  }
#endif
  chunks_.push_back(std::make_unique<Chunk>());
  cur_ = chunks_.back().get();
}

TraceFile Tracer::capture(const Stats& stats, Cycles end_time) const {
  TraceFile f;
  f.mask = mask_;
  f.procs = procs_;
  f.nodes = nodes_;
  f.end_time = end_time;
  f.provenance = build_provenance();
  f.stats = stats;
  f.records.reserve(count_);
  for (const auto& c : chunks_) {
    f.records.insert(f.records.end(), c->recs.begin(), c->recs.begin() + c->n);
  }
  return f;
}

void Tracer::finish(const Stats& stats, Cycles end_time) {
  if (path_.empty()) return;
  write_file(capture(stats, end_time), path_);
}

// ---------------------------------------------------------------------------
// Binary file format (native-endian; see docs/tracing.md)
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'S', 'V', 'M', 'T', 'R', 'A', 'C', 'E'};

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t mask;
  std::int32_t procs;
  std::int32_t nodes;
  std::uint64_t end_time;
  std::uint64_t record_count;
  std::uint32_t provenance_bytes;
  std::uint32_t counter_count;
};
static_assert(sizeof(FileHeader) == 48);

template <class T>
void put(std::ofstream& out, const T* p, std::size_t n) {
  out.write(reinterpret_cast<const char*>(p),
            static_cast<std::streamsize>(n * sizeof(T)));
}

template <class T>
void get(std::ifstream& in, T* p, std::size_t n) {
  in.read(reinterpret_cast<char*>(p),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) throw std::runtime_error("trace: truncated file");
}

/// Bytes between the read position and the end of the file.
std::uint64_t bytes_left(std::ifstream& in) {
  const std::streampos pos = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(pos);
  if (!in || pos < 0 || end < pos) {
    throw std::runtime_error("trace: cannot size file");
  }
  return static_cast<std::uint64_t>(end - pos);
}

}  // namespace

void write_file(const TraceFile& f, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("trace: cannot open " + tmp);

    FileHeader h{};
    std::memcpy(h.magic, kMagic, sizeof(kMagic));
    h.version = f.version;
    h.mask = f.mask;
    h.procs = f.procs;
    h.nodes = f.nodes;
    h.end_time = f.end_time;
    h.record_count = f.records.size();
    h.provenance_bytes = static_cast<std::uint32_t>(f.provenance.size());
    h.counter_count = kCounterCount;
    put(out, &h, 1);
    put(out, f.provenance.data(), f.provenance.size());
    for (int p = 0; p < f.stats.procs(); ++p) {
      put(out, f.stats.proc(p).t.data(), static_cast<std::size_t>(kTimeCats));
    }
    const auto counters = counters_to_array(f.stats.counters());
    put(out, counters.data(), counters.size());
    put(out, f.records.data(), f.records.size());
    if (!out) throw std::runtime_error("trace: write failed for " + tmp);
  }
  // Atomic publish: an interrupted run can never leave a truncated trace.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("trace: rename to " + path + " failed");
  }
}

TraceFile read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);

  FileHeader h{};
  get(in, &h, 1);
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("trace: " + path + " is not a svmsim trace");
  }
  if (h.version != kFormatVersion) {
    throw std::runtime_error("trace: " + path + " has format version " +
                             std::to_string(h.version) + ", expected " +
                             std::to_string(kFormatVersion));
  }
  if (h.counter_count != kCounterCount) {
    throw std::runtime_error("trace: " + path + " counter count mismatch");
  }
  // Record::proc/node are int16, so larger machines cannot have been traced.
  constexpr std::int32_t kMaxIds = std::numeric_limits<std::int16_t>::max();
  if (h.procs < 0 || h.procs > kMaxIds || h.nodes < 0 || h.nodes > kMaxIds) {
    throw std::runtime_error("trace: " + path + " has " +
                             std::to_string(h.procs) + " procs / " +
                             std::to_string(h.nodes) + " nodes");
  }
  // Sizes must fit the bytes actually present before anything is allocated.
  const std::uint64_t body_bytes =
      h.provenance_bytes +
      static_cast<std::uint64_t>(h.procs) * kTimeCats * sizeof(Cycles) +
      kCounterCount * sizeof(std::uint64_t);
  const std::uint64_t left = bytes_left(in);
  if (body_bytes > left ||
      h.record_count > (left - body_bytes) / sizeof(Record)) {
    throw std::runtime_error("trace: " + path + " is truncated");
  }

  TraceFile f;
  f.version = h.version;
  f.mask = h.mask;
  f.procs = h.procs;
  f.nodes = h.nodes;
  f.end_time = h.end_time;
  f.provenance.resize(h.provenance_bytes);
  if (h.provenance_bytes > 0) get(in, f.provenance.data(), f.provenance.size());
  f.stats = Stats(h.procs);
  for (int p = 0; p < h.procs; ++p) {
    get(in, f.stats.proc(p).t.data(), static_cast<std::size_t>(kTimeCats));
  }
  std::array<std::uint64_t, kCounterCount> counters{};
  get(in, counters.data(), counters.size());
  f.stats.counters() = counters_from_array(counters);
  f.records.resize(h.record_count);
  if (h.record_count > 0) get(in, f.records.data(), f.records.size());
  return f;
}

}  // namespace svmsim::trace

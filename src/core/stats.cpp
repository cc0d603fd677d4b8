#include "core/stats.hpp"

#include <algorithm>

namespace svmsim {

std::string_view to_string(TimeCat c) {
  switch (c) {
    case TimeCat::kCompute:
      return "compute";
    case TimeCat::kMemStall:
      return "mem-stall";
    case TimeCat::kWriteBufStall:
      return "wb-stall";
    case TimeCat::kDataWait:
      return "data-wait";
    case TimeCat::kLockWait:
      return "lock-wait";
    case TimeCat::kBarrierWait:
      return "barrier-wait";
    case TimeCat::kHandler:
      return "handler";
    case TimeCat::kProtocol:
      return "protocol";
    case TimeCat::kCount:
      break;
  }
  return "?";
}

Counters& Counters::operator+=(const Counters& o) noexcept {
  for (const CounterField& f : kCounterFields) this->*f.member += o.*f.member;
  return *this;
}

Breakdown Stats::aggregate() const {
  Breakdown sum;
  for (const auto& b : per_proc_) sum += b;
  return sum;
}

Cycles Stats::max_local_only() const {
  Cycles m = 0;
  for (const auto& b : per_proc_) m = std::max(m, b.local_only());
  return m;
}

Cycles Stats::total_compute() const {
  Cycles s = 0;
  for (const auto& b : per_proc_) s += b.get(TimeCat::kCompute);
  return s;
}

}  // namespace svmsim

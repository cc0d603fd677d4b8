// Application-facing shared-memory API and the Application base class.
//
// Shm is the per-processor view of the shared virtual address space; every
// access goes through the node's SVM protocol agent, so application kernels
// read and write *real data* with full protocol and timing behaviour.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "core/runner.hpp"
#include "engine/task.hpp"
#include "svm/address_space.hpp"
#include "svm/hlrc.hpp"

namespace svmsim::apps {

using svm::Distribution;
using svm::GlobalAddr;

/// The awaitable behind Shm::read<T>/write<T>: one access of a T through
/// the node's SVM agent. await_ready() runs the agent's synchronous hit path
/// (SvmAgent::advance); only a page fault, a write to a page that is not
/// read-write, or a read miss builds a coroutine (SvmAgent::finish), which
/// resumes the access where the hit path stopped. `value_` is the access's
/// buffer, so it stays in the awaiting frame across that suspension.
template <typename T, typename Access>
class [[nodiscard]] ShmAccess {
  static_assert(std::is_trivially_copyable_v<T>);
  static constexpr bool kRead =
      std::is_same_v<Access, svm::SvmAgent::ReadAccess>;

 public:
  ShmAccess(svm::SvmAgent& agent, Processor& proc, GlobalAddr a, T v)
      : agent_(&agent), proc_(&proc), addr_(a), value_(v) {}

  bool await_ready() {
    access_ = {addr_, sizeof(T), reinterpret_cast<std::byte*>(&value_)};
    return agent_->advance(*proc_, access_);
  }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
    slow_ = agent_->finish(*proc_, access_);
    return std::move(slow_).operator co_await().await_suspend(caller);
  }
  auto await_resume() {
    if (slow_.valid()) std::move(slow_).operator co_await().await_resume();
    if constexpr (kRead) return value_;
  }

 private:
  svm::SvmAgent* agent_;
  Processor* proc_;
  GlobalAddr addr_;
  T value_;
  Access access_{};
  engine::Task<void> slow_;
};

class Shm {
 public:
  Shm(Machine& m, ProcId pid)
      : machine_(&m),
        proc_(&m.proc(pid)),
        agent_(&m.agent_of(pid)),
        pid_(pid),
        nprocs_(m.total_procs()) {}

  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] int nprocs() const noexcept { return nprocs_; }
  [[nodiscard]] Machine& machine() noexcept { return *machine_; }
  [[nodiscard]] Processor& proc() noexcept { return *proc_; }

  /// Model `c` cycles of private computation (private-data accesses
  /// included, as in the paper's compute time).
  void compute(Cycles c) { proc_->charge(TimeCat::kCompute, c); }

  template <typename T>
  ShmAccess<T, svm::SvmAgent::ReadAccess> read(GlobalAddr a) {
    return {*agent_, *proc_, a, T{}};
  }

  template <typename T>
  ShmAccess<T, svm::SvmAgent::WriteAccess> write(GlobalAddr a, T v) {
    return {*agent_, *proc_, a, v};
  }

  engine::Task<void> read_block(GlobalAddr a, void* dst,
                                std::uint64_t bytes) {
    return agent_->read(*proc_, a, dst, bytes);
  }
  engine::Task<void> write_block(GlobalAddr a, const void* src,
                                 std::uint64_t bytes) {
    return agent_->write(*proc_, a, src, bytes);
  }

  /// Lock ids must be in [0, Machine::kMaxLocks). Larger ids are rejected in
  /// debug builds; release builds take them modulo the cap, which stays
  /// *coherent* (two ids mapping to the same lock alias one mutex — stricter
  /// than intended, never unsafe) but can serialize unrelated critical
  /// sections. See tests/test_check.cpp:LockAliasing.
  engine::Task<void> lock(int id) {
    assert(id >= 0 && id < Machine::kMaxLocks &&
           "lock id out of range (would alias modulo Machine::kMaxLocks)");
    return agent_->acquire_lock(*proc_, id % Machine::kMaxLocks);
  }
  engine::Task<void> unlock(int id) {
    assert(id >= 0 && id < Machine::kMaxLocks &&
           "lock id out of range (would alias modulo Machine::kMaxLocks)");
    return agent_->release_lock(*proc_, id % Machine::kMaxLocks);
  }
  engine::Task<void> barrier() { return agent_->barrier(*proc_); }

 private:
  Machine* machine_;
  Processor* proc_;
  svm::SvmAgent* agent_;
  int pid_;
  int nprocs_;
};

/// A typed window over a shared allocation.
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;
  SharedArray(GlobalAddr base, std::uint64_t count)
      : base_(base), count_(count) {}

  /// Allocate `count` elements with distribution `d` in machine `m`.
  static SharedArray alloc(Machine& m, std::uint64_t count, Distribution d) {
    return SharedArray(m.alloc(count * sizeof(T), d), count);
  }

  [[nodiscard]] GlobalAddr addr(std::uint64_t i = 0) const {
    return base_ + i * sizeof(T);
  }
  [[nodiscard]] std::uint64_t size() const noexcept { return count_; }

  auto get(Shm& shm, std::uint64_t i) const { return shm.read<T>(addr(i)); }
  auto put(Shm& shm, std::uint64_t i, T v) const {
    return shm.write<T>(addr(i), v);
  }
  engine::Task<void> get_block(Shm& shm, std::uint64_t i, T* dst,
                               std::uint64_t n) const {
    return shm.read_block(addr(i), dst, n * sizeof(T));
  }
  engine::Task<void> put_block(Shm& shm, std::uint64_t i, const T* src,
                               std::uint64_t n) const {
    return shm.write_block(addr(i), src, n * sizeof(T));
  }

  // Untimed init/validation access.
  void debug_put(Machine& m, std::uint64_t i, const T& v) const {
    m.debug_write(addr(i), &v, sizeof(T));
  }
  [[nodiscard]] T debug_get(Machine& m, std::uint64_t i) const {
    T v{};
    m.debug_read(addr(i), &v, sizeof(T));
    return v;
  }

 private:
  GlobalAddr base_ = 0;
  std::uint64_t count_ = 0;
};

/// Problem-size scaling for the suite: kTiny for unit tests, kSmall for the
/// default bench runs, kLarge for closer-to-paper inputs.
enum class Scale { kTiny, kSmall, kLarge };

/// The one spelling table of Scale, in enum order: --scale values and
/// to_string.
inline constexpr std::pair<std::string_view, Scale> kScaleNames[] = {
    {"tiny", Scale::kTiny}, {"small", Scale::kSmall}, {"large", Scale::kLarge}};

[[nodiscard]] std::string to_string(Scale s);

class Application : public Workload {
 public:
  explicit Application(Scale scale) : scale_(scale) {}
  [[nodiscard]] Scale scale() const noexcept { return scale_; }

 protected:
  Scale scale_;
};

/// Deterministic 64-bit RNG (splitmix64) for workload generation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

 private:
  std::uint64_t s_;
};

}  // namespace svmsim::apps

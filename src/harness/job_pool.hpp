// A small fixed-size worker pool for running independent simulation points
// concurrently (the `--jobs N` sweep executor).
//
// Semantics are deliberately batch-shaped: run() hands the workers an
// indexed list of jobs, blocks until every job finished, and rethrows the
// first exception any job raised. Jobs must be independent; determinism is
// the caller's problem and is trivially obtained by having job i write only
// slot i of a pre-sized result vector (simulations themselves are
// single-threaded and bit-reproducible, so execution order cannot leak into
// results).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace svmsim::harness {

class JobPool {
 public:
  using Job = std::function<void()>;

  /// Largest worker count a --jobs flag accepts.
  static constexpr long kMaxWorkers = 256;

  /// Spawn `threads` workers; 0 means hardware_default().
  explicit JobPool(unsigned threads = 0);
  ~JobPool();

  JobPool(const JobPool&) = delete;
  JobPool& operator=(const JobPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Run every job to completion (in unspecified order, on the workers).
  /// Blocks the caller; rethrows the first exception a job threw after the
  /// whole batch has drained. Not reentrant: one batch at a time.
  void run(std::vector<Job> jobs);

  /// std::thread::hardware_concurrency, floored at 1.
  [[nodiscard]] static unsigned hardware_default() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<Job>* batch_ = nullptr;  // non-null while a batch is running
  std::size_t next_ = 0;               // next unclaimed job index
  std::size_t remaining_ = 0;          // jobs not yet finished
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace svmsim::harness

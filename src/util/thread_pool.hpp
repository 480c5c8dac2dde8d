// Fixed-size worker pool plus data-parallel helpers.
//
// The fault-injection campaigns and Monte-Carlo sweeps in this repository are
// embarrassingly parallel over trials; `parallel_for_chunks` splits an index
// range into contiguous chunks over the pool (so a chunk can reuse one
// evaluator), and `parallel_for` runs a body per index on top of it. Results
// stay deterministic because randomness is derived per-index (see
// Rng::split), never from thread identity.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wnf {

/// A minimal fixed-size thread pool (no work stealing; FIFO queue).
///
/// Tasks are `void()` closures. `wait_idle()` blocks until the queue is
/// drained and all workers are parked, which is the synchronisation point
/// used by the data-parallel helpers below.
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 means std::thread::hardware_concurrency,
  /// itself clamped to at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until all submitted tasks have finished.
  void wait_idle();

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Process-wide pool, created on first use.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Splits [begin, end) into contiguous chunks (at most 4 per worker) and
/// runs `body(lo, hi)` once per chunk over `pool`, so a body can set up
/// per-chunk state (an evaluator, a workspace) once for many indices.
/// Every index lies in exactly one chunk. Runs `body(begin, end)` on the
/// calling thread when the range is tiny or the pool has one worker.
void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body);

/// parallel_for_chunks over the global pool.
void parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body);

/// Runs `body(i)` for every i in [begin, end), distributed over `pool`:
/// each parallel_for_chunks chunk loops over its indices in order, so
/// per-iteration overhead stays negligible even for micro-bodies.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// parallel_for over the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Maps `body(i) -> double` over [0, n) and sums the results; the reduction
/// order is fixed (by index) so results are deterministic.
double parallel_sum(ThreadPool& pool, std::size_t n,
                    const std::function<double(std::size_t)>& body);

}  // namespace wnf

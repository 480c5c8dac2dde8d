#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace wnf {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  WNF_EXPECTS(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    WNF_EXPECTS(!stopping_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  WNF_EXPECTS(begin <= end);
  const std::size_t n = end - begin;
  if (n == 0) return;
  const std::size_t workers = pool.size();
  if (workers <= 1 || n < 2) {
    body(begin, end);
    return;
  }
  const std::size_t chunks = std::min(n, workers * 4);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk_size);
    pool.submit([lo, hi, &body] { body(lo, hi); });
  }
  pool.wait_idle();
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for_chunks(ThreadPool::global(), begin, end, body);
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  parallel_for_chunks(pool, begin, end,
                      [&body](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) body(i);
                      });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  parallel_for(ThreadPool::global(), begin, end, body);
}

double parallel_sum(ThreadPool& pool, std::size_t n,
                    const std::function<double(std::size_t)>& body) {
  std::vector<double> partial(n, 0.0);
  parallel_for(pool, 0, n, [&](std::size_t i) { partial[i] = body(i); });
  double total = 0.0;
  for (double value : partial) total += value;
  return total;
}

}  // namespace wnf

#include "serve/pool.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace wnf::serve {

namespace {

/// Requests a worker claims per dispatch-queue lock. Chunking amortises
/// the lock across requests; small enough that work-stealing balance
/// survives heavy-tailed per-request latency draws.
constexpr std::size_t kGrabChunk = 8;

std::size_t resolve_replicas(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ReplicaPool::ReplicaPool(const nn::FeedForwardNetwork& net, ServeConfig config)
    : net_(net),
      front_("serve", "serve.rejected", config.seed, config.queue_capacity,
             net.input_dim()) {
  front_.set_straggler_cut(config.straggler_cut, net_);
  const std::size_t replicas = resolve_replicas(config.replicas);
  replicas_.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    replicas_.push_back(std::make_unique<Replica>(
        net_, config.sim, config.latency, front_.wait_counts()));
  }
  threads_.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    threads_.emplace_back([this, r] { worker_loop(r); });
  }
}

ReplicaPool::~ReplicaPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    dispatch_.clear();  // abandoned requests are never delivered anyway
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ReplicaPool::set_timeline(FaultTimeline timeline) {
  front_.set_timeline(std::move(timeline), net_);
  // Segment indices from the old timeline mean nothing under the new one;
  // force every replica to re-resolve on its next request. The pipeline is
  // idle, so no worker is reading its segment concurrently.
  for (auto& replica : replicas_) replica->reset_segment();
}

bool ReplicaPool::submit(std::vector<double> x) {
  const bool accepted =
      front_.submit(std::move(x), [this](PendingRequest&& request) {
        obs::async_begin(obs::TraceName::kQueue,
                         front_.trace_tag() + request.id);
        const std::lock_guard<std::mutex> lock(mutex_);
        dispatch_.push_back(std::move(request));
      });
  if (accepted) work_cv_.notify_one();
  return accepted;
}

std::size_t ReplicaPool::submit_batch(
    std::span<const std::vector<double>> batch) {
  // One lock and one wake for the whole batch: at small request sizes the
  // per-request notify_one and mutex round-trips of submit() dominate the
  // closed-loop throughput otherwise.
  std::size_t accepted = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    accepted = front_.submit_batch(batch, [this](PendingRequest&& request) {
      obs::async_begin(obs::TraceName::kQueue,
                       front_.trace_tag() + request.id);
      dispatch_.push_back(std::move(request));
    });
  }
  if (accepted >= replicas_.size()) {
    work_cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < accepted; ++i) work_cv_.notify_one();
  }
  return accepted;
}

RequestResult ReplicaPool::process(Replica& replica,
                                   const PendingRequest& request) {
  // The queue span ends where execution begins; the execute span is the
  // replica step itself, on this replica's thread.
  obs::async_end(obs::TraceName::kQueue, front_.trace_tag() + request.id);
  const obs::ScopedSpan span(obs::TraceName::kExecute, request.id);
  const FaultTimeline& timeline = front_.timeline();
  const std::size_t segment = timeline.segment_at(request.id);
  const dist::SimResult sim_result = replica.step(
      segment, timeline.segment_plan(segment), request.x, request.rng);
  return {request.id, sim_result.output, sim_result.completion_time,
          sim_result.resets_sent};
}

void ReplicaPool::worker_loop(std::size_t r) {
  Replica& replica = *replicas_[r];
  std::vector<PendingRequest> grabbed;
  std::vector<RequestResult> finished;
  grabbed.reserve(kGrabChunk);
  finished.reserve(kGrabChunk);
  while (true) {
    grabbed.clear();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !dispatch_.empty(); });
      if (stopping_) return;
      // Work-stealing in chunks: a replica stuck behind a heavy request
      // never idles the others, because the rest of the stream stays on
      // the shared queue for whoever frees up first.
      const std::size_t take = std::min(kGrabChunk, dispatch_.size());
      for (std::size_t i = 0; i < take; ++i) {
        grabbed.push_back(std::move(dispatch_.front()));
        dispatch_.pop_front();
      }
    }
    finished.clear();
    for (const PendingRequest& request : grabbed) {
      finished.push_back(process(replica, request));
    }
    // Every claimed request is flushed before the worker can sleep again,
    // so the consumer never waits on a result a parked worker is holding.
    front_.completions().push_many(finished);
    obs::instant(obs::TraceName::kCompletionPush, r, finished.size());
  }
}

bool ReplicaPool::poll(RequestResult& out) { return front_.poll(out); }

RequestResult ReplicaPool::wait() { return front_.wait(); }

std::vector<RequestResult> ReplicaPool::drain() { return front_.drain(); }

ServeReport ReplicaPool::report() const {
  return front_.report(replicas_.size());
}

}  // namespace wnf::serve

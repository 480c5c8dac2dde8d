// Fault-aware serving runtime over the message-level simulator: the repo's
// step from "replay one request on one thread" to the ROADMAP's
// heavy-traffic deployment. The pool is one of the two executors behind
// serve::Frontend — that front owns admission, ids, Rng splits, the fault
// timeline and delivery, and with them the determinism contract (see
// serve/frontend.hpp). The pool owns only how accepted requests execute:
// worker threads, one serve::Replica each, fed from a shared dispatch queue
// the moment a request is accepted.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "dist/latency.hpp"
#include "dist/sim.hpp"
#include "obs/metrics.hpp"
#include "serve/frontend.hpp"
#include "serve/replica.hpp"
#include "serve/report.hpp"
#include "serve/timeline.hpp"

namespace wnf::serve {

/// Shape of one serving deployment.
struct ServeConfig {
  std::size_t replicas = 1;  ///< worker threads, one simulator each
                             ///< (0 means hardware concurrency)
  std::size_t queue_capacity = 4096;  ///< outstanding requests (accepted,
                                      ///< not yet delivered) the pool
                                      ///< carries before rejecting
                                      ///< (load shedding)
  dist::SimConfig sim;                ///< per-replica channel capacity
  dist::LatencyModel latency;  ///< per-request, per-neuron latency draws
  /// Optional Corollary-2 straggler cut, size L (empty = full waits).
  /// Realized end to end, output client included, via wait_counts_from_cut.
  std::vector<std::size_t> straggler_cut;
  std::uint64_t seed = 0x5eed;  ///< root of the per-request Rng::split tree
};

/// A pool of simulator replicas serving batched traffic through an
/// asynchronous submission/completion pipeline.
///
/// Threading contract: one driver thread calls submit / poll / wait /
/// drain / set_timeline / report; the pool is not thread-safe across
/// drivers. Execution is asynchronous to the driver — each replica runs on
/// its own worker thread, pulling accepted requests off a shared dispatch
/// queue the moment they are submitted, so submit() never blocks on
/// execution and the driver can keep several deployments saturated at
/// once. Workers push finished results into a CompletionQueue, which
/// merges them back into request-id order; poll()/wait() are the
/// completion primitives and drain() is a thin wrapper that waits out
/// every outstanding request. set_timeline() requires an idle pipeline
/// (no outstanding requests): a timeline swap mid-flight would race the
/// workers' segment installs.
class ReplicaPool {
 public:
  /// Binds to `net` (kept by reference; must outlive the pool) and spawns
  /// the worker threads with one simulator replica each.
  ReplicaPool(const nn::FeedForwardNetwork& net, ServeConfig config);

  /// Joins the worker threads; outstanding results are discarded.
  ~ReplicaPool();

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;

  /// Installs a fault scenario (validated and segmented against the
  /// network). Applies to requests by id from here on. Requires an idle
  /// pipeline: every submitted request delivered (pending() == 0).
  void set_timeline(FaultTimeline timeline);

  /// Admission through the front (Frontend::submit / submit_batch), which
  /// refuses malformed requests and sheds on a full queue; workers may
  /// start executing an accepted request immediately.
  bool submit(std::vector<double> x);
  std::size_t submit_batch(std::span<const std::vector<double>> batch);

  /// Delivery through the front (Frontend::poll / wait / drain).
  bool poll(RequestResult& out);
  RequestResult wait();
  std::vector<RequestResult> drain();

  ServeReport report() const;

  std::size_t replica_count() const { return replicas_.size(); }
  /// This deployment's metric registry (counters and latency histograms
  /// the report derives from) — live, for the metrics JSON exporter.
  const obs::MetricsRegistry& metrics() const { return front_.metrics(); }
  /// Requests accepted and not yet delivered through poll()/wait().
  std::size_t pending() const { return front_.pending(); }
  /// Submissions refused as malformed (Frontend::invalid).
  std::size_t invalid() const { return front_.invalid(); }
  std::uint64_t next_request_id() const { return front_.next_id(); }
  const nn::FeedForwardNetwork& network() const { return net_; }

 private:
  RequestResult process(Replica& replica, const PendingRequest& request);
  void worker_loop(std::size_t r);

  const nn::FeedForwardNetwork& net_;
  Frontend front_;
  std::vector<std::unique_ptr<Replica>> replicas_;

  // Driver-side dispatch queue feeding the worker threads; they push
  // finished results into the front's completion queue.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<PendingRequest> dispatch_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace wnf::serve

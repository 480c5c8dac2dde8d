// The driver side of every serving deployment: the request contract, kept
// once for both runtimes. serve::ReplicaPool (threads) and
// transport::WorkerHost (forked processes) each own only *how* accepted
// requests execute; what a request computes and how its delivery is
// accounted lives here.
//
// Determinism contract: every accepted request gets the next id and a
// child Rng split off the root stream at acceptance, and its fault state
// comes from the FaultTimeline by request id. A request's result is
// therefore a pure function of (seed, id, input, timeline) — bit-identical
// whatever the executor (thread or process), the executor count, the
// scheduling, or which executors died along the way. Shed requests consume
// neither an id nor a split, so load shedding never perturbs accepted
// results. Cut stragglers always reset to zero (the Corollary-2 semantics
// the certificate covers); hold-last would make results depend on which
// executor served the previous request. Delivery is in id order through a
// CompletionQueue, so an asynchronous pipeline observes exactly what a
// synchronous drain would.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/network.hpp"
#include "obs/metrics.hpp"
#include "serve/completion.hpp"
#include "serve/report.hpp"
#include "serve/timeline.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace wnf::serve {

/// One accepted request on its way to an executor.
struct PendingRequest {
  std::uint64_t id = 0;
  std::vector<double> x;
  Rng rng;  ///< child stream split off at acceptance
};

/// Validation, admission, id and Rng assignment, the fault timeline, and
/// delivery accounting of one serving deployment.
///
/// Threading contract: the driver thread calls everything, except that
/// executors may push into completions() from any thread and read
/// timeline(), wait_counts() and trace_tag() while requests are in flight —
/// those change only on an idle pipeline (set_timeline, set_straggler_cut,
/// restart all require pending() == 0).
class Frontend {
 public:
  /// `runtime` prefixes the metric names (`<runtime>.invalid`,
  /// `.resets_sent`, `.completion_time`, `.queue_depth`); `shed_metric`
  /// names the counter of submissions the full queue refused. Requests
  /// must hold `input_dim` finite values.
  Frontend(const std::string& runtime, const std::string& shed_metric,
           std::uint64_t seed, std::size_t queue_capacity,
           std::size_t input_dim);

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Accepts `x` unless it is malformed (wrong size or a non-finite
  /// value: counted on `<runtime>.invalid`) or `queue_capacity` requests
  /// are outstanding (counted as shed); on acceptance hands `sink` the
  /// request with the next id and Rng split. Refusals consume no id.
  template <class Sink>
  bool submit(std::vector<double> x, Sink&& sink) {
    if (!well_formed(x)) {
      invalid_count_->add(1);
      return false;
    }
    if (admit(1) == 0) return false;
    sink(make_request(std::move(x)));
    return true;
  }

  /// Accepts the longest prefix of `batch` that is well formed and that
  /// the queue has room for, handing `sink` each accepted request in id
  /// order. Returns the prefix length. A malformed request ends the prefix:
  /// it counts as invalid and the requests after it are neither examined
  /// nor counted. Well-formed requests before it that find the queue full
  /// count as shed.
  template <class Sink>
  std::size_t submit_batch(std::span<const std::vector<double>> batch,
                           Sink&& sink) {
    std::size_t valid = 0;
    while (valid < batch.size() && well_formed(batch[valid])) ++valid;
    if (valid < batch.size()) invalid_count_->add(1);
    const std::size_t accepted = admit(valid);
    for (std::size_t i = 0; i < accepted; ++i) sink(make_request(batch[i]));
    return accepted;
  }

  /// Installs a fault scenario, validated and segmented against `net`.
  /// Applies to requests by id. Requires an idle pipeline: executors may
  /// hold segments of the old timeline.
  void set_timeline(FaultTimeline timeline, const nn::FeedForwardNetwork& net);
  const FaultTimeline& timeline() const { return timeline_; }

  /// Realizes an optional Corollary-2 straggler cut (size L; empty = full
  /// waits) end to end, output client included, as per-layer wait counts.
  /// Requires an idle pipeline.
  void set_straggler_cut(const std::vector<std::size_t>& cut,
                         const nn::FeedForwardNetwork& net);
  /// Size L+1; empty = full waits.
  const std::vector<std::size_t>& wait_counts() const { return wait_counts_; }

  /// Where executors push finished results (any thread).
  CompletionQueue& completions() { return completions_; }

  /// Delivers the next result in id order if it has completed; never
  /// blocks.
  bool poll(RequestResult& out);

  /// Blocks until the next result in id order completes, then delivers it.
  /// Only for executors that push from threads of their own. Requires at
  /// least one outstanding request.
  RequestResult wait();

  /// Waits out every outstanding request and returns the results in id
  /// order, bulk-popping whatever is consecutively ready per wake. Same
  /// executor requirement as wait().
  std::vector<RequestResult> drain();

  /// A fresh logical deployment on the same executors: ids restart at 0 on
  /// a root stream reseeded from `seed`, the timeline clears, the queue
  /// bound becomes `queue_capacity`, requests must hold `input_dim` values,
  /// and the report and every metric zero. Requires an idle pipeline.
  void restart(std::uint64_t seed, std::size_t queue_capacity,
               std::size_t input_dim);

  /// Completion statistics, shed and reset counts over everything
  /// delivered since construction or the last restart().
  ServeReport report(std::size_t replicas) const;

  /// Requests accepted and not yet delivered.
  std::size_t pending() const { return outstanding_; }
  /// Submissions refused as malformed (`<runtime>.invalid`) since
  /// construction or the last restart().
  std::size_t invalid() const {
    return static_cast<std::size_t>(invalid_count_->value());
  }
  std::uint64_t next_id() const { return next_id_; }
  /// High bits of this deployment's async trace ids (request-id low bits).
  std::uint64_t trace_tag() const { return trace_tag_; }
  /// The deployment's registry: the front's metrics plus whatever its
  /// runtime registers. restart() zeroes all of them.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// `input_dim_` values, every one finite.
  bool well_formed(std::span<const double> x) const;
  /// Admits the longest prefix of `count` requests the queue has room
  /// for, counts the rest as shed, and returns the prefix length.
  std::size_t admit(std::size_t count);
  PendingRequest make_request(std::vector<double> x) {
    return {next_id_++, std::move(x), root_.split()};
  }
  void delivered(const RequestResult& result);

  std::size_t queue_capacity_;
  std::size_t input_dim_;
  Rng root_;
  std::uint64_t next_id_ = 0;
  std::size_t outstanding_ = 0;  ///< accepted - delivered
  FaultTimeline timeline_;
  std::vector<std::size_t> wait_counts_;
  CompletionQueue completions_;

  // Aggregates over every delivery (id order, so deterministic). The
  // counters live in the registry; completion times keep exact samples for
  // the pinned report quantiles.
  std::chrono::steady_clock::time_point busy_start_{};
  double wall_seconds_ = 0.0;
  SampleHistogram completion_;
  obs::MetricsRegistry metrics_;
  obs::Counter* shed_count_ = nullptr;
  obs::Counter* invalid_count_ = nullptr;
  obs::Counter* resets_count_ = nullptr;
  obs::LogHistogram* completion_hist_ = nullptr;
  obs::LogHistogram* queue_depth_hist_ = nullptr;
  std::uint64_t trace_tag_ = 0;
};

}  // namespace wnf::serve

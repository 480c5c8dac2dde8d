// The part of the serving-path backends that does not depend on which
// runtime serves: ServeBackend (serve::ReplicaPool threads) and
// TransportBackend (transport::WorkerHost processes) both turn a campaign
// into request traffic the same way, and differ only in how they get a
// server. A trial stream becomes one request stream — trial t's plan is a
// serve::FaultTimeline window over its probes' request ids — and the
// serial install/evaluate path drives a persistent single-request server
// whose stream advances across evaluate() calls.
#pragma once

#include <algorithm>
#include <memory>

#include "exec/backend.hpp"
#include "obs/trace.hpp"
#include "serve/report.hpp"
#include "serve/timeline.hpp"
#include "util/contract.hpp"

namespace wnf::exec {

/// An EvalBackend over a serving runtime `Server` (serve::ReplicaPool or
/// transport::WorkerHost). Both share the serving determinism contract, so
/// results depend only on the trials and the options, never on the runtime
/// or what ran before.
template <class Server>
class ServedBackend : public EvalBackend {
 public:
  const nn::FeedForwardNetwork& network() const override { return net_; }

  void install(const fault::FaultPlan& plan) override {
    fault::validate_plan(plan, net_);
    plan_ = plan;
    plan_dirty_ = true;
  }

  void clear() override {
    plan_ = fault::FaultPlan{};
    plan_dirty_ = true;
  }

  ProbeResult evaluate(std::span<const double> x) override {
    if (!serial_) serial_ = make_server(1);
    Server& server = *serial_;
    if (plan_dirty_) {
      // The installed plan holds for every request from here on: one
      // window covering the rest of the server's request stream.
      serve::FaultTimeline timeline;
      if (!plan_.empty()) {
        timeline.add(server.next_request_id(),
                     serve::FaultTimeline::kForever, plan_);
      }
      server.set_timeline(std::move(timeline));
      plan_dirty_ = false;
    }
    const bool accepted =
        server.submit(std::vector<double>(x.begin(), x.end()));
    WNF_ASSERT(accepted);  // the serial server drains after every request
    const serve::RequestResult result = server.wait();
    return {result.output, result.completion_time, result.resets_sent};
  }

 protected:
  explicit ServedBackend(const nn::FeedForwardNetwork& net) : net_(net) {}

  /// A fresh server bound to network() whose queue holds `queue_capacity`
  /// outstanding requests.
  virtual std::unique_ptr<Server> make_server(
      std::size_t queue_capacity) const = 0;

  /// Serves `trials` as one request stream on `acquire(capacity)` — a
  /// server with request ids from 0, no timeline, and room for the whole
  /// stream, so nothing is shed and prior calls leave no trace in the
  /// results. Submission and completion interleave through the async seam:
  /// execution starts on the head of the stream while the tail is still
  /// being submitted, poll() harvests whatever has finished in id order,
  /// and wait() drains the remainder — bit-identical to a synchronous
  /// submit-everything-then-drain, just pipelined.
  template <class Acquire>
  std::vector<TrialResult> serve_trials(std::span<const Trial> trials,
                                        Acquire&& acquire) {
    std::size_t total = 0;
    for (const Trial& trial : trials) total += trial.probes.size();
    const obs::ScopedSpan span(obs::TraceName::kTrialStream, trials.size(),
                               total);
    Server& server = acquire(std::max<std::size_t>(total, 1));

    serve::FaultTimeline timeline;
    std::uint64_t offset = 0;
    for (const Trial& trial : trials) {
      if (!trial.plan.empty() && !trial.probes.empty()) {
        timeline.add(offset, offset + trial.probes.size(), trial.plan);
      }
      offset += trial.probes.size();
    }
    server.set_timeline(std::move(timeline));

    std::vector<serve::RequestResult> served;
    served.reserve(total);
    serve::RequestResult ready;
    for (const Trial& trial : trials) {
      for (const auto& x : trial.probes) {
        const bool accepted = server.submit(x);
        WNF_ASSERT(accepted);  // queue sized to the whole stream
        while (server.poll(ready)) served.push_back(ready);
      }
    }
    while (server.pending() > 0) served.push_back(server.wait());
    WNF_ASSERT(served.size() == total);

    std::vector<TrialResult> results(trials.size());
    std::size_t at = 0;
    for (std::size_t t = 0; t < trials.size(); ++t) {
      const Trial& trial = trials[t];
      results[t].probes.reserve(trial.probes.size());
      for (std::size_t i = 0; i < trial.probes.size(); ++i, ++at) {
        results[t].probes.push_back({served[at].output,
                                     served[at].completion_time,
                                     served[at].resets_sent});
      }
      finish_trial(trial, results[t]);
    }
    return results;
  }

 private:
  const nn::FeedForwardNetwork& net_;
  fault::FaultPlan plan_;
  bool plan_dirty_ = false;
  std::unique_ptr<Server> serial_;  ///< lazily built by evaluate()
};

}  // namespace wnf::exec

#include "serve/frontend.hpp"

#include <algorithm>
#include <cmath>

#include "dist/boosting.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace wnf::serve {

Frontend::Frontend(const std::string& runtime, const std::string& shed_metric,
                   std::uint64_t seed, std::size_t queue_capacity,
                   std::size_t input_dim)
    : queue_capacity_(queue_capacity), input_dim_(input_dim), root_(seed) {
  WNF_EXPECTS(queue_capacity_ > 0);
  // The report derives from the registry; the hot paths cache the metric
  // pointers once (registrations outlive the front).
  shed_count_ = &metrics_.counter(shed_metric);
  invalid_count_ = &metrics_.counter(runtime + ".invalid");
  resets_count_ = &metrics_.counter(runtime + ".resets_sent");
  completion_hist_ = &metrics_.histogram(runtime + ".completion_time");
  queue_depth_hist_ = &metrics_.histogram(runtime + ".queue_depth");
  trace_tag_ = obs::next_span_id() << 32;
}

bool Frontend::well_formed(std::span<const double> x) const {
  return x.size() == input_dim_ &&
         std::all_of(x.begin(), x.end(),
                     [](double v) { return std::isfinite(v); });
}

std::size_t Frontend::admit(std::size_t count) {
  const std::size_t accepted =
      std::min(count, queue_capacity_ - outstanding_);
  if (accepted < count) {
    shed_count_->add(static_cast<std::int64_t>(count - accepted));
    obs::instant(obs::TraceName::kShed, next_id_ + accepted);
  }
  if (accepted == 0) return 0;
  if (outstanding_ == 0) busy_start_ = std::chrono::steady_clock::now();
  outstanding_ += accepted;
  if (obs::enabled()) {
    for (std::size_t i = 0; i < accepted; ++i) {
      obs::async_begin(obs::TraceName::kRequest, trace_tag_ + next_id_ + i);
    }
    obs::counter(obs::TraceName::kQueueDepth, outstanding_);
    // Sampling histograms ride the tracing switch: the report's counters
    // are always exact, but per-request depth sampling must cost the
    // disabled hot path nothing.
    queue_depth_hist_->observe(static_cast<double>(outstanding_));
  }
  return accepted;
}

void Frontend::set_timeline(FaultTimeline timeline,
                            const nn::FeedForwardNetwork& net) {
  WNF_EXPECTS(outstanding_ == 0);
  timeline_ = std::move(timeline);
  timeline_.finalize(net);
}

void Frontend::set_straggler_cut(const std::vector<std::size_t>& cut,
                                 const nn::FeedForwardNetwork& net) {
  WNF_EXPECTS(outstanding_ == 0);
  wait_counts_.clear();
  if (cut.empty()) return;
  WNF_EXPECTS(cut.size() == net.layer_count());
  wait_counts_ = dist::wait_counts_from_cut(net, cut);
}

void Frontend::delivered(const RequestResult& result) {
  WNF_ASSERT(outstanding_ > 0);
  completion_.add(result.completion_time);
  resets_count_->add(static_cast<std::int64_t>(result.resets_sent));
  --outstanding_;
  if (obs::enabled()) {
    completion_hist_->observe(result.completion_time);
    obs::instant(obs::TraceName::kDeliver, result.id);
    obs::async_end(obs::TraceName::kRequest, trace_tag_ + result.id);
    obs::counter(obs::TraceName::kQueueDepth, outstanding_);
  }
  if (outstanding_ == 0) {
    // The pipeline just went idle: close the busy interval that opened at
    // the first acceptance into an idle pipeline.
    wall_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - busy_start_)
                         .count();
  }
}

bool Frontend::poll(RequestResult& out) {
  if (!completions_.try_pop(out)) return false;
  delivered(out);
  return true;
}

RequestResult Frontend::wait() {
  WNF_EXPECTS(outstanding_ > 0);
  RequestResult out = completions_.pop();
  delivered(out);
  return out;
}

std::vector<RequestResult> Frontend::drain() {
  std::vector<RequestResult> results;
  results.reserve(outstanding_);
  while (outstanding_ > 0) {
    const std::size_t at = results.size();
    completions_.pop_ready(results);
    for (std::size_t i = at; i < results.size(); ++i) delivered(results[i]);
  }
  return results;
}

void Frontend::restart(std::uint64_t seed, std::size_t queue_capacity,
                       std::size_t input_dim) {
  WNF_EXPECTS(outstanding_ == 0);
  WNF_EXPECTS(queue_capacity > 0);
  queue_capacity_ = queue_capacity;
  input_dim_ = input_dim;
  root_.reseed(seed);
  next_id_ = 0;
  completions_.reset(0);
  timeline_ = FaultTimeline{};
  completion_.clear();
  metrics_.reset();  // cached pointers stay valid
  wall_seconds_ = 0.0;
  trace_tag_ = obs::next_span_id() << 32;
}

ServeReport Frontend::report(std::size_t replicas) const {
  ServeReport report;
  report.rejected = static_cast<std::size_t>(shed_count_->value());
  report.replicas = replicas;
  report.completed = completion_.count();
  report.wall_seconds = wall_seconds_;
  report.throughput_rps =
      wall_seconds_ > 0.0
          ? static_cast<double>(report.completed) / wall_seconds_
          : 0.0;
  report.completion = completion_.summary();
  const Quantiles q = completion_.quantiles();
  report.p50 = q.p50;
  report.p95 = q.p95;
  report.p99 = q.p99;
  report.p999 = q.p999;
  report.resets_sent = static_cast<std::size_t>(resets_count_->value());
  return report;
}

}  // namespace wnf::serve

#include "serve/replica.hpp"

namespace wnf::serve {

Replica::Replica(const nn::FeedForwardNetwork& net, const dist::SimConfig& sim,
                 const dist::LatencyModel& latency,
                 std::vector<std::size_t> wait_counts)
    : sim_(net, sim), latency_(latency), wait_counts_(std::move(wait_counts)) {}

dist::SimResult Replica::step(std::size_t segment,
                              const fault::FaultPlan& plan,
                              std::span<const double> x, Rng rng) {
  if (segment != segment_) {
    if (plan.empty()) {
      sim_.clear_faults();
    } else {
      sim_.apply_faults(plan);
    }
    segment_ = segment;
  }
  sim_.sample_latencies(latency_, rng);
  return wait_counts_.empty()
             ? sim_.evaluate(x)
             : sim_.evaluate_boosted(
                   x, {wait_counts_.data(), wait_counts_.size()});
}

}  // namespace wnf::serve

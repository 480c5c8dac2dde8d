#include "exec/injector_backend.hpp"

#include "util/thread_pool.hpp"

namespace wnf::exec {

InjectorBackend::InjectorBackend(const nn::FeedForwardNetwork& net)
    : net_(net), injector_(net) {}

void InjectorBackend::install(const fault::FaultPlan& plan) {
  fault::validate_plan(plan, net_);
  plan_ = plan;
}

void InjectorBackend::clear() { plan_ = fault::FaultPlan{}; }

ProbeResult InjectorBackend::evaluate(std::span<const double> x) {
  // The matrix forward pass has no notion of time or messages.
  return {injector_.damaged(plan_, x), 0.0, 0};
}

void InjectorBackend::damaged_outputs(
    const fault::FaultPlan& plan, std::span<const std::vector<double>> probes,
    std::span<double> outputs) {
  fault::validate_plan(plan, net_);
  injector_.damaged(plan, probes, outputs);
}

std::vector<TrialResult> InjectorBackend::run_trials(
    std::span<const Trial> trials) {
  // Validated up front, on the caller's thread: the lane path indexes lane
  // buffers by the plan's neuron and synapse indices.
  for (const Trial& trial : trials) fault::validate_plan(trial.plan, net_);
  std::vector<TrialResult> results(trials.size());
  parallel_for(0, trials.size(), [&](std::size_t t) {
    const Trial& trial = trials[t];
    fault::Injector injector(net_);  // Injectors are not thread-safe
    std::vector<double> damaged(trial.probes.size());
    injector.damaged(trial.plan, trial.probes, damaged);
    results[t].probes.reserve(damaged.size());
    for (double output : damaged) results[t].probes.push_back({output, 0.0, 0});
    finish_trial(net_, trial, results[t]);
  });
  return results;
}

}  // namespace wnf::exec

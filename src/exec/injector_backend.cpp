#include "exec/injector_backend.hpp"

#include "util/contract.hpp"
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

void InjectorBackend::crash_errors(const fault::FaultPlan& base,
                                   std::size_t layer,
                                   std::span<const std::size_t> candidates,
                                   std::span<const std::vector<double>> probes,
                                   std::span<const double> nominal,
                                   std::span<double> errors) {
  // What validate_plan would check on each base-plus-candidate plan.
  fault::validate_plan(base, net_);
  WNF_EXPECTS(!probes.empty());
  WNF_EXPECTS(layer >= 1 && layer <= net_.layer_count());
  for (const std::size_t candidate : candidates) {
    WNF_EXPECTS(candidate < net_.layer_width(layer));
    for (const auto& fault : base.neurons) {
      WNF_EXPECTS((fault.layer != layer || fault.neuron != candidate) &&
                  "duplicate neuron fault");
    }
  }
  injector_.crash_errors(base, layer, candidates, probes, nominal, errors);
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
    finish_trial(trial, results[t]);
  });
  return results;
}

}  // namespace wnf::exec

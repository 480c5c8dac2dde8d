#include "exec/backend.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "fault/injector.hpp"
#include "util/contract.hpp"

namespace wnf::exec {

void nominal_outputs(const nn::FeedForwardNetwork& net,
                     std::span<const std::vector<double>> probes,
                     std::span<double> outputs) {
  fault::Injector(net).nominal(probes, outputs);
}

Trial make_trial(const nn::FeedForwardNetwork& net, fault::FaultPlan plan,
                 std::vector<std::vector<double>> probes) {
  Trial trial{std::move(plan), std::move(probes), {}};
  trial.nominal.resize(trial.probes.size());
  nominal_outputs(net, trial.probes, trial.nominal);
  return trial;
}

void finish_trial(const Trial& trial, TrialResult& result) {
  WNF_EXPECTS(trial.nominal.size() == trial.probes.size());
  WNF_ASSERT(result.probes.size() == trial.probes.size());
  result.worst_error = 0.0;
  for (std::size_t i = 0; i < trial.probes.size(); ++i) {
    result.worst_error =
        std::max(result.worst_error,
                 std::fabs(trial.nominal[i] - result.probes[i].output));
  }
}

void EvalBackend::damaged_outputs(const fault::FaultPlan& plan,
                                  std::span<const std::vector<double>> probes,
                                  std::span<double> outputs) {
  WNF_EXPECTS(outputs.size() == probes.size());
  install(plan);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    outputs[i] = evaluate(probes[i]).output;
  }
  clear();
}

double EvalBackend::worst_output_error(
    const fault::FaultPlan& plan, std::span<const std::vector<double>> probes,
    std::span<const double> nominal) {
  WNF_EXPECTS(!probes.empty());
  WNF_EXPECTS(nominal.size() == probes.size());
  std::vector<double> damaged(probes.size());
  damaged_outputs(plan, probes, damaged);
  double worst = 0.0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    worst = std::max(worst, std::fabs(nominal[i] - damaged[i]));
  }
  return worst;
}

void EvalBackend::crash_errors(const fault::FaultPlan& base, std::size_t layer,
                               std::span<const std::size_t> candidates,
                               std::span<const std::vector<double>> probes,
                               std::span<const double> nominal,
                               std::span<double> errors) {
  WNF_EXPECTS(errors.size() == candidates.size());
  fault::FaultPlan plan = base;
  plan.neurons.push_back({layer, 0, fault::NeuronFaultKind::kCrash, 0.0});
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    plan.neurons.back().neuron = candidates[k];
    errors[k] = worst_output_error(plan, probes, nominal);
  }
}

std::vector<TrialResult> EvalBackend::run_trials(
    std::span<const Trial> trials) {
  std::vector<TrialResult> results(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const Trial& trial = trials[t];
    install(trial.plan);
    results[t].probes.reserve(trial.probes.size());
    for (const auto& x : trial.probes) {
      results[t].probes.push_back(evaluate({x.data(), x.size()}));
    }
    finish_trial(trial, results[t]);
  }
  clear();
  return results;
}

}  // namespace wnf::exec

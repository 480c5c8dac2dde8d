#include "exec/backend.hpp"

#include <algorithm>
#include <cmath>

#include "fault/injector.hpp"
#include "util/contract.hpp"

namespace wnf::exec {

void nominal_outputs(const nn::FeedForwardNetwork& net,
                     std::span<const std::vector<double>> probes,
                     std::span<double> outputs) {
  fault::Injector(net).nominal(probes, outputs);
}

void finish_trial(const nn::FeedForwardNetwork& net, const Trial& trial,
                  TrialResult& result) {
  WNF_ASSERT(result.probes.size() == trial.probes.size());
  std::vector<double> clean(trial.probes.size());
  nominal_outputs(net, trial.probes, clean);
  result.worst_error = 0.0;
  for (std::size_t i = 0; i < trial.probes.size(); ++i) {
    result.worst_error = std::max(result.worst_error,
                                  std::fabs(clean[i] - result.probes[i].output));
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
    finish_trial(network(), trial, results[t]);
  }
  clear();
  return results;
}

}  // namespace wnf::exec

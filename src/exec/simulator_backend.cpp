#include "exec/simulator_backend.hpp"

#include "dist/boosting.hpp"
#include "tensor/ops.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace wnf::exec {

SimulatorBackend::SimulatorBackend(const nn::FeedForwardNetwork& net,
                                   SimulatorBackendOptions options)
    : net_(net),
      options_(std::move(options)),
      sim_(make_simulator()),
      latency_root_(options_.latency_seed) {
  if (!options_.straggler_cut.empty()) {
    WNF_EXPECTS(options_.straggler_cut.size() == net_.layer_count());
    wait_counts_ = dist::wait_counts_from_cut(net_, options_.straggler_cut);
  }
}

dist::NetworkSimulator SimulatorBackend::make_simulator() const {
  dist::NetworkSimulator sim(net_, options_.sim);
  // A model that draws nothing gives every lane of every block the same
  // latencies, so they are written here once instead of per block.
  if (!options_.latency.draws() &&
      options_.policy != dist::ResetPolicy::kHoldLast) {
    sim.fill_lane_latencies(options_.latency);
  }
  return sim;
}

namespace {

/// Installs `plan` on `sim`; an empty plan clears the installed one.
void install_plan(dist::NetworkSimulator& sim, const fault::FaultPlan& plan) {
  if (plan.empty()) {
    sim.clear_faults();
  } else {
    sim.apply_faults(plan);
  }
}

}  // namespace

void SimulatorBackend::install(const fault::FaultPlan& plan) {
  install_plan(sim_, plan);
}

void SimulatorBackend::clear() { sim_.clear_faults(); }

ProbeResult SimulatorBackend::run_probe(dist::NetworkSimulator& sim,
                                        Rng& latency_rng,
                                        std::span<const double> x) const {
  sim.sample_latencies(options_.latency, latency_rng);
  const dist::SimResult result =
      wait_counts_.empty()
          ? sim.evaluate(x)
          : sim.evaluate_boosted(x, {wait_counts_.data(), wait_counts_.size()},
                                 options_.policy);
  return {result.output, result.completion_time, result.resets_sent};
}

template <class LatencyRng>
void SimulatorBackend::run_probes(dist::NetworkSimulator& sim,
                                  std::span<const std::vector<double>> probes,
                                  LatencyRng&& latency_rng,
                                  std::span<ProbeResult> out) const {
  WNF_EXPECTS(out.size() == probes.size());
  const auto single = [&](std::size_t i) {
    out[i] = run_probe(sim, latency_rng(i), probes[i]);
  };
  if (options_.policy == dist::ResetPolicy::kHoldLast) {
    for (std::size_t i = 0; i < probes.size(); ++i) single(i);
    return;
  }
  const bool draws = options_.latency.draws();
  std::vector<dist::SimResult> block(kLanes);
  for_each_lane_block(
      probes.size(),
      [&](std::size_t begin, std::size_t count) {
        for (std::size_t b = 0; b < count; ++b) {
          Rng& rng = latency_rng(begin + b);  // splits even when unread
          if (draws) sim.sample_lane_latencies(b, options_.latency, rng);
        }
        sim.evaluate_lanes(probes.subspan(begin, count), wait_counts_,
                           std::span(block).first(count));
        for (std::size_t b = 0; b < count; ++b) {
          out[begin + b] = {block[b].output, block[b].completion_time,
                            block[b].resets_sent};
        }
      },
      single);
}

ProbeResult SimulatorBackend::evaluate(std::span<const double> x) {
  Rng probe_rng = latency_root_.split();
  return run_probe(sim_, probe_rng, x);
}

void SimulatorBackend::damaged_outputs(
    const fault::FaultPlan& plan, std::span<const std::vector<double>> probes,
    std::span<double> outputs) {
  WNF_EXPECTS(outputs.size() == probes.size());
  install(plan);
  // The serial path's draw: one split of the backend's stream per probe.
  Rng probe_rng;
  std::vector<ProbeResult> results(probes.size());
  run_probes(
      sim_, probes,
      [&](std::size_t) -> Rng& {
        probe_rng = latency_root_.split();
        return probe_rng;
      },
      results);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    outputs[i] = results[i].output;
  }
  clear();
}

std::vector<TrialResult> SimulatorBackend::run_trials(
    std::span<const Trial> trials) {
  // One child latency stream per trial, split up front so results are
  // independent of which worker runs which trial.
  Rng seeder(options_.latency_seed);
  std::vector<Rng> trial_rngs;
  trial_rngs.reserve(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    trial_rngs.push_back(seeder.split());
  }

  std::vector<TrialResult> results(trials.size());
  parallel_for_chunks(0, trials.size(), [&](std::size_t lo, std::size_t hi) {
    // One simulator per chunk. Each trial installs its own plan and starts
    // with no hold-last history, and every lane a block reads is redrawn
    // (or was filled once), so a reused simulator returns what a fresh one
    // would.
    dist::NetworkSimulator sim = make_simulator();
    for (std::size_t t = lo; t < hi; ++t) {
      const Trial& trial = trials[t];
      install_plan(sim, trial.plan);
      sim.reset_history();
      Rng rng = trial_rngs[t];
      results[t].probes.resize(trial.probes.size());
      run_probes(
          sim, trial.probes, [&](std::size_t) -> Rng& { return rng; },
          results[t].probes);
      finish_trial(trial, results[t]);
    }
  });
  return results;
}

}  // namespace wnf::exec

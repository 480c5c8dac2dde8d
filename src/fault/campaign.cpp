#include "fault/campaign.hpp"

#include <cmath>

#include "exec/injector_backend.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace wnf::fault {
namespace {

std::vector<std::vector<double>> random_probes(std::size_t count,
                                               std::size_t dim, Rng& rng) {
  std::vector<std::vector<double>> probes(count);
  for (auto& probe : probes) {
    probe.resize(dim);
    for (double& coordinate : probe) coordinate = rng.uniform();
  }
  return probes;
}

FaultPlan make_attack_plan(const nn::FeedForwardNetwork& net,
                           const CampaignConfig& config,
                           std::span<const std::size_t> counts,
                           std::span<const std::vector<double>> probes,
                           Rng& rng) {
  switch (config.attack) {
    case AttackKind::kRandomCrash:
      return random_crash_plan(net, counts, rng);
    case AttackKind::kTopWeightCrash:
      return top_weight_crash_plan(net, counts);
    case AttackKind::kGreedyCrash:
      return greedy_worst_crash_plan(net, counts, probes);
    case AttackKind::kRandomByzantine:
      return random_byzantine_plan(net, counts, config.capacity, rng);
    case AttackKind::kGradientByzantine:
      // Direct the attack at the first probe; evaluate over all probes.
      return gradient_directed_byzantine_plan(
          net, counts, config.capacity,
          {probes.front().data(), probes.front().size()});
    case AttackKind::kRandomSynapseByzantine:
      return random_synapse_byzantine_plan(net, counts, config.capacity, rng);
  }
  WNF_ASSERT(false);  // unreachable
  return {};
}

double campaign_bound(const nn::FeedForwardNetwork& net,
                      std::span<const std::size_t> counts,
                      const CampaignConfig& config,
                      const theory::FepOptions& fep_options) {
  const auto prof = theory::profile_of(net, fep_options);
  return config.attack == AttackKind::kRandomSynapseByzantine
             ? theory::synapse_error_bound(prof, counts, fep_options)
             : theory::forward_error_propagation(prof, counts, fep_options);
}

CampaignResult summarize_trials(std::span<const exec::TrialResult> results,
                                double fep_bound) {
  CampaignResult result;
  result.fep_bound = fep_bound;
  Accumulator acc;
  for (const auto& trial : results) acc.add(trial.worst_error);
  result.per_trial_worst = acc.summary();
  result.observed_max = acc.summary().max;
  return result;
}

}  // namespace

std::vector<exec::Trial> make_campaign_trials(
    const nn::FeedForwardNetwork& net, std::span<const std::size_t> counts,
    const CampaignConfig& config) {
  WNF_EXPECTS(config.trials > 0);
  WNF_EXPECTS(config.probes_per_trial > 0);
  const bool synapse_attack =
      config.attack == AttackKind::kRandomSynapseByzantine;
  WNF_EXPECTS(counts.size() == net.layer_count() + (synapse_attack ? 1 : 0));

  // Per-trial RNG streams derived from the seed keep trials independent of
  // thread scheduling (and of which backend later runs them).
  Rng seeder(config.seed);
  std::vector<Rng> trial_rngs;
  trial_rngs.reserve(config.trials);
  for (std::size_t t = 0; t < config.trials; ++t) {
    trial_rngs.push_back(seeder.split());
  }

  const std::vector<std::size_t> counts_copy(counts.begin(), counts.end());
  std::vector<exec::Trial> trials(config.trials);
  // Plan construction can be expensive (greedy search evaluates candidate
  // victims over the probes), so it parallelises like the trials themselves,
  // and so does the fault-free forward every backend scores against (one
  // Injector per chunk).
  parallel_for_chunks(0, config.trials, [&](std::size_t lo, std::size_t hi) {
    Injector injector(net);
    for (std::size_t t = lo; t < hi; ++t) {
      Rng rng = trial_rngs[t];
      trials[t] = exec::make_trial(
          injector, {},
          random_probes(config.probes_per_trial, net.input_dim(), rng));
      trials[t].plan = make_attack_plan(
          net, config, counts_copy,
          {trials[t].probes.data(), trials[t].probes.size()}, rng);
      trials[t].plan.convention = config.convention;
    }
  });
  return trials;
}

CampaignResult run_campaign(const nn::FeedForwardNetwork& net,
                            std::span<const std::size_t> counts,
                            const CampaignConfig& config,
                            const theory::FepOptions& fep_options,
                            exec::EvalBackend& backend) {
  WNF_EXPECTS(&backend.network() == &net);
  const auto trials = make_campaign_trials(net, counts, config);
  const auto results = backend.run_trials(trials);
  return summarize_trials(results,
                          campaign_bound(net, counts, config, fep_options));
}

CampaignResult run_campaign(const nn::FeedForwardNetwork& net,
                            std::span<const std::size_t> counts,
                            const CampaignConfig& config,
                            const theory::FepOptions& fep_options) {
  exec::InjectorBackend backend(net);
  return run_campaign(net, counts, config, fep_options, backend);
}

CrossCheckResult cross_check_campaign(const nn::FeedForwardNetwork& net,
                                      std::span<const std::size_t> counts,
                                      const CampaignConfig& config,
                                      const theory::FepOptions& fep_options,
                                      exec::EvalBackend& first,
                                      exec::EvalBackend& second) {
  WNF_EXPECTS(&first.network() == &net);
  WNF_EXPECTS(&second.network() == &net);
  const auto trials = make_campaign_trials(net, counts, config);
  const auto results_first = first.run_trials(trials);
  const auto results_second = second.run_trials(trials);

  CrossCheckResult check;
  const double bound = campaign_bound(net, counts, config, fep_options);
  check.first = summarize_trials(results_first, bound);
  check.second = summarize_trials(results_second, bound);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    WNF_ASSERT(results_first[t].probes.size() ==
               results_second[t].probes.size());
    for (std::size_t i = 0; i < results_first[t].probes.size(); ++i) {
      const double gap = std::fabs(results_first[t].probes[i].output -
                                   results_second[t].probes[i].output);
      if (gap > check.max_divergence) {
        check.max_divergence = gap;
        check.divergent_trial = t;
        check.divergent_probe = i;
      }
    }
  }
  return check;
}

TimelineCampaignResult run_timeline_campaign(
    const nn::FeedForwardNetwork& net, const serve::FaultTimeline& timeline,
    const TimelineCampaignConfig& config, exec::EvalBackend& backend) {
  WNF_EXPECTS(config.trials > 0);
  WNF_EXPECTS(config.probes_per_trial > 0);
  WNF_EXPECTS(&backend.network() == &net);

  serve::FaultTimeline finalized = timeline;
  finalized.finalize(net);

  Rng seeder(config.seed);
  std::vector<Rng> trial_rngs;
  trial_rngs.reserve(config.trials);
  for (std::size_t t = 0; t < config.trials; ++t) {
    trial_rngs.push_back(seeder.split());
  }

  std::vector<exec::Trial> trials(config.trials);
  parallel_for_chunks(0, config.trials, [&](std::size_t lo, std::size_t hi) {
    Injector injector(net);
    for (std::size_t t = lo; t < hi; ++t) {
      Rng rng = trial_rngs[t];
      trials[t] = exec::make_trial(
          injector, finalized.active_at(t),
          random_probes(config.probes_per_trial, net.input_dim(), rng));
    }
  });
  TimelineCampaignResult result;
  for (const exec::Trial& trial : trials) {
    if (!trial.plan.empty()) ++result.faulty_trials;
  }

  const auto trial_results = backend.run_trials(trials);
  result.per_trial_error.reserve(trial_results.size());
  Accumulator acc;
  for (const auto& trial : trial_results) {
    result.per_trial_error.push_back(trial.worst_error);
    acc.add(trial.worst_error);
  }
  result.per_trial_worst = acc.summary();
  result.observed_max = acc.summary().max;
  return result;
}

}  // namespace wnf::fault

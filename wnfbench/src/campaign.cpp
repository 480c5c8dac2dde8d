// campaign: a closed batch certifying a dense 8->128->128->128->1 sigmoid
// net (2 faults per layer) against four attacks. Each attack's trials run
// on both the Injector and the simulator backends; the suite is repeated
// for the whole run budget and each repetition is one certification.
#include <cstdio>
#include <utility>

#include "bench.hpp"
#include "core/fep.hpp"
#include "exec/injector_backend.hpp"
#include "exec/simulator_backend.hpp"
#include "fault/adversary.hpp"
#include "fault/campaign.hpp"
#include "nn/builder.hpp"

namespace wnfbench {
namespace {

using namespace wnf;

constexpr std::size_t kProbes = 32;
constexpr std::size_t kRandomTrials = 250;
constexpr std::size_t kGreedyTrials = 1;
constexpr std::size_t kWarmupTrials = 64;
constexpr int kSetups = 7;

struct Attack {
  const char* name;
  fault::AttackKind kind;
  std::size_t trials;
};

const Attack kAttacks[] = {
    {"random_crash", fault::AttackKind::kRandomCrash, kRandomTrials},
    {"greedy_crash", fault::AttackKind::kGreedyCrash, kGreedyTrials},
    {"random_byzantine", fault::AttackKind::kRandomByzantine, kRandomTrials},
    {"synapse_byzantine", fault::AttackKind::kRandomSynapseByzantine,
     kRandomTrials},
};

bool is_crash(fault::AttackKind kind) {
  return kind == fault::AttackKind::kRandomCrash ||
         kind == fault::AttackKind::kGreedyCrash;
}

/// Per-suite timings of each layer, summed over the four attacks.
struct SuiteTimes {
  double total_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time over the suite
  double ref_ns = 0.0;  ///< host reference matvec timed after the suite
  double make_trials_s = 0.0;
  double injector_s = 0.0;
  double simulator_s = 0.0;
  double bound_s = 0.0;
  std::size_t injector_probes = 0;
  std::size_t simulator_probes = 0;
  std::size_t mismatched = 0;  ///< probes on which the backends disagree
  std::vector<double> tightness;  ///< per attack, in kAttacks order
};

class Campaign {
 public:
  explicit Campaign(std::uint64_t seed) : seed_(seed) {
    Rng rng(seed);
    nn::NetworkBuilder builder(8);
    builder.activation(nn::ActivationKind::kSigmoid, 1.0);
    for (int l = 0; l < 3; ++l) builder.hidden(128);
    net_ = builder.init(nn::InitKind::kScaledUniform, 0.8).build(rng);
    injector_ = std::make_unique<exec::InjectorBackend>(net_);
    simulator_ = std::make_unique<exec::SimulatorBackend>(net_);
  }

  const nn::FeedForwardNetwork& net() const { return net_; }

  /// One certification: plans, both backends and the bound per attack.
  /// `trials_cap` shrinks every attack (the warm-up); 0 keeps full sizes.
  SuiteTimes certify(SpanLog* log, Outcome& out, std::size_t trials_cap = 0) {
    SuiteTimes times;
    ScopedSpan suite(log, "campaign.suite");
    const auto suite_start = Clock::now();
    const double cpu_start = process_cpu_s();
    for (const Attack& attack : kAttacks) {
      if (trials_cap > 0 && attack.kind == fault::AttackKind::kGreedyCrash) {
        continue;  // the warm-up leaves the adversary search out
      }
      ScopedSpan leg(log, attack.name);
      fault::CampaignConfig config;
      config.attack = attack.kind;
      config.trials = trials_cap > 0 ? trials_cap : attack.trials;
      config.probes_per_trial = kProbes;
      config.capacity = 1.0;
      // The transmitted-value convention is the one on which the Injector
      // and the simulator must agree bit for bit (see campaign.hpp).
      config.convention = theory::CapacityConvention::kTransmittedValueBound;
      config.seed = seed_ + 1;
      const bool synapse =
          attack.kind == fault::AttackKind::kRandomSynapseByzantine;
      const std::vector<std::size_t> counts(net_.layer_count() + synapse, 2);

      auto t = Clock::now();
      std::vector<exec::Trial> trials;
      {
        ScopedSpan span(log, "fault.make_campaign_trials");
        trials = fault::make_campaign_trials(net_, counts, config);
      }
      times.make_trials_s += seconds_since(t);

      t = Clock::now();
      std::vector<exec::TrialResult> by_injector;
      {
        ScopedSpan span(log, "exec.injector.run_trials");
        by_injector = injector_->run_trials(trials);
      }
      times.injector_s += seconds_since(t);

      t = Clock::now();
      std::vector<exec::TrialResult> by_simulator;
      {
        ScopedSpan span(log, "exec.simulator.run_trials");
        by_simulator = simulator_->run_trials(trials);
      }
      times.simulator_s += seconds_since(t);

      t = Clock::now();
      double bound = 0.0;
      {
        ScopedSpan span(log, "core.bound");
        theory::FepOptions fep;
        fep.mode = is_crash(attack.kind) ? theory::FailureMode::kCrash
                                         : theory::FailureMode::kByzantine;
        fep.capacity = config.capacity;
        fep.convention = config.convention;
        const auto profile = theory::profile_of(net_, fep);
        bound = synapse ? theory::synapse_error_bound(profile, counts, fep)
                        : theory::forward_error_propagation(profile, counts,
                                                            fep);
      }
      times.bound_s += seconds_since(t);

      // Output checks: bit-for-bit backend agreement and observed <= bound.
      double observed = 0.0;
      std::size_t probes = 0;
      std::size_t mismatched = 0;
      for (std::size_t i = 0; i < trials.size(); ++i) {
        const auto& a = by_injector[i].probes;
        const auto& b = by_simulator[i].probes;
        if (a.size() != kProbes || b.size() != kProbes) {
          out.fail(std::string(attack.name) + ": a backend dropped probes");
          break;
        }
        for (std::size_t p = 0; p < a.size(); ++p) {
          mismatched += a[p].output != b[p].output;
        }
        probes += a.size();
        observed = std::max({observed, by_injector[i].worst_error,
                             by_simulator[i].worst_error});
      }
      if (mismatched > 0) {
        out.fail(std::string(attack.name) + ": Injector and simulator differ "
                 "on " + std::to_string(mismatched) + " probes");
      }
      if (!(observed <= bound)) {
        out.fail(std::string(attack.name) + ": observed max " +
                 std::to_string(observed) + " exceeds the Fep bound " +
                 std::to_string(bound));
      }
      times.injector_probes += probes;
      times.simulator_probes += probes;
      times.mismatched += mismatched;
      times.tightness.push_back(observed / bound);
    }
    times.total_s = seconds_since(suite_start);
    times.cpu_s = process_cpu_s() - cpu_start;
    return times;
  }

 private:
  std::uint64_t seed_;
  nn::FeedForwardNetwork net_;
  std::unique_ptr<exec::InjectorBackend> injector_;
  std::unique_ptr<exec::SimulatorBackend> simulator_;
};

}  // namespace

double campaign_setup_s(const RunOptions& options, Outcome& out) {
  const auto start = Clock::now();
  Campaign campaign(options.seed);
  campaign.certify(nullptr, out, kWarmupTrials);
  return seconds_since(start);
}

Outcome run_campaign(const RunOptions& options) {
  Outcome out;
  // --- set-up: net build plus a warm-up certification. setup_s is taken
  // over fresh processes, so thread pool start and first touch of every
  // buffer are in each sample; this process then sets up once for itself.
  if (!options.trace) {
    out.metrics["setup_s"] = cold_setup_s(options, "campaign", kSetups, out);
  }
  auto campaign = std::make_unique<Campaign>(options.seed);
  campaign->certify(nullptr, out, kWarmupTrials);

  // --- certifications, repeated for the run budget ---
  const auto certify_all = [&](SpanLog* log, double budget_s) {
    std::vector<SuiteTimes> suites;
    const auto start = Clock::now();
    do {
      suites.push_back(campaign->certify(log, out));
      suites.back().ref_ns = host_reference_ns();
      out.attempted +=
          suites.back().injector_probes + suites.back().simulator_probes;
      out.failed += suites.back().mismatched;
    } while (seconds_since(start) < budget_s || suites.size() < 3);
    return suites;
  };
  const double budget = options.trace ? 0.3 * options.seconds : options.seconds;
  const auto suites = certify_all(nullptr, budget);

  // CPU time per probe evaluation.
  const auto cpu_cost = [](const std::vector<SuiteTimes>& runs) {
    CpuCost cost;
    for (const auto& s : runs) {
      cost.per_op_ns.push_back(
          s.cpu_s * 1e9 /
          static_cast<double>(s.injector_probes + s.simulator_probes));
      cost.ref_ns.push_back(s.ref_ns);
    }
    return cost;
  };
  const CpuCost cost = cpu_cost(suites);
  cost.print();
  std::vector<double> latency_us, goodput;
  for (const auto& s : suites) {
    const auto probes =
        static_cast<double>(s.injector_probes + s.simulator_probes);
    latency_us.push_back(s.total_s * 1e6);
    goodput.push_back(probes / s.total_s);
    if (s.tightness != suites.front().tightness) {
      out.fail("core.tightness differs between repeats of one seed");
    }
  }
  const double certify_s = median(latency_us) / 1e6;
  std::printf("campaign: %zu certifications of 8x128x128x128 (%zu x %zu "
              "random-attack trials, %zu greedy), certify_s median %.4f\n",
              suites.size(), kRandomTrials, kProbes, kGreedyTrials, certify_s);
  std::printf("  certify_s per certification:");
  for (const double us : latency_us) std::printf(" %.3f", us / 1e6);
  std::printf("\n");
  for (std::size_t a = 0; a < std::size(kAttacks); ++a) {
    std::printf("  tightness %-18s %.17g\n", kAttacks[a].name,
                suites.front().tightness[a]);
  }
  if (!options.trace) {
    out.metrics["cpu_per_op"] = cost.in_ref();
    return out;
  }

  // --- traced run: the same certifications with every call in a span ---
  SpanLog log;
  const auto traced = certify_all(&log, 0.3 * options.seconds);
  std::vector<double> make_s, bound_s, inj_rate, sim_rate;
  for (const auto& s : traced) {
    make_s.push_back(s.make_trials_s);
    bound_s.push_back(s.bound_s);
    inj_rate.push_back(static_cast<double>(s.injector_probes) / s.injector_s);
    sim_rate.push_back(static_cast<double>(s.simulator_probes) /
                       s.simulator_s);
    if (s.tightness != suites.front().tightness) {
      out.fail("core.tightness differs between the plain and traced run");
    }
  }
  out.metrics["goodput_rps"] = median(goodput);
  out.metrics["fault.make_trials_s"] = median(make_s);
  out.metrics["exec.injector.probes_per_s"] = median(inj_rate);
  out.metrics["exec.simulator.probes_per_s"] = median(sim_rate);
  out.metrics["core.bound_s"] = median(bound_s);
  for (std::size_t a = 0; a < std::size(kAttacks); ++a) {
    out.metrics[std::string("core.tightness.") + kAttacks[a].name] =
        suites.front().tightness[a];
  }
  out.metrics["trace_overhead_frac"] =
      cpu_cost(traced).in_ref() / cost.in_ref() - 1.0;
  out.metrics["cpu_us_per_op"] = cost.us();

  // --- the ladder over this workload's net, probes and a crash plan ---
  LadderSpec spec;
  spec.net = &campaign->net();
  Rng rng(options.seed + 2);
  spec.probes.assign(512, std::vector<double>(8));
  for (auto& x : spec.probes) {
    for (double& v : x) v = rng.uniform();
  }
  const std::vector<std::size_t> counts(campaign->net().layer_count(), 2);
  spec.plan = fault::random_crash_plan(campaign->net(), counts, rng);
  spec.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.2};
  spec.cut = {2, 2, 2};
  spec.seed = options.seed;
  RingCounts rings;
  out.metrics["transport.stalled_runs"] =
      static_cast<double>(run_ladder(spec, &log, out, rings));
  rings.report(out);

  log.print_self_times("spans (traced run):");
  if (!options.spans_path.empty() && !log.write_csv(options.spans_path)) {
    out.fail("cannot write spans to " + options.spans_path);
  }
  return out;
}

}  // namespace wnfbench

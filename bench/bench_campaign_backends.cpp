// Campaign execution backends — one scenario engine, three paths. Every
// AttackKind runs through fault::run_campaign against the analytic path
// (Injector), the message-level simulator, and the serving pool; the table
// reports per-backend observed error, the shared Fep bound, and wall time.
// A second panel runs the campaign-scale cross-check: the same trial stream
// on two backends at once, reporting the maximum per-probe divergence —
// zero for Injector↔Simulator under the transmitted-value convention (the
// convention cross-checks must use; see src/dist/sim.hpp) and for
// Simulator↔Serve with instantaneous latencies.
//
// Run: ./bench_campaign_backends [trials=40] [probes=16] [width=24]
//                                [depth=2] [replicas=4] [seed=9]
#include <chrono>
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "exec/injector_backend.hpp"
#include "exec/serve_backend.hpp"
#include "exec/simulator_backend.hpp"
#include "fault/campaign.hpp"

int main(int argc, char** argv) {
  using namespace wnf;
  CliArgs args(argc, argv);
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 40));
  const auto probes = static_cast<std::size_t>(args.get_int("probes", 16));
  const auto width = static_cast<std::size_t>(args.get_int("width", 24));
  const auto depth = static_cast<std::size_t>(args.get_int("depth", 2));
  const auto replicas = static_cast<std::size_t>(args.get_int("replicas", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 9));
  args.reject_unknown();

  bench::bench_header(
      "campaign backends — one scenario engine over three execution paths",
      "every AttackKind runs on Injector, NetworkSimulator, and ReplicaPool "
      "through the same exec::EvalBackend seam; cross-checks pin the paths "
      "against each other at campaign scale");

  Rng rng(seed);
  nn::NetworkBuilder builder(4);
  builder.activation(nn::ActivationKind::kSigmoid, 1.0);
  for (std::size_t l = 0; l < depth; ++l) builder.hidden(width);
  const auto net = builder.init(nn::InitKind::kScaledUniform, 0.8).build(rng);

  const std::vector<std::pair<const char*, fault::AttackKind>> attacks{
      {"random crash", fault::AttackKind::kRandomCrash},
      {"top-weight crash", fault::AttackKind::kTopWeightCrash},
      {"greedy crash", fault::AttackKind::kGreedyCrash},
      {"random byzantine", fault::AttackKind::kRandomByzantine},
      {"gradient byzantine", fault::AttackKind::kGradientByzantine},
      {"random synapse byz", fault::AttackKind::kRandomSynapseByzantine}};

  const auto counts_for = [&](fault::AttackKind kind) {
    std::vector<std::size_t> counts(depth, 1);
    if (kind == fault::AttackKind::kRandomSynapseByzantine) {
      counts.push_back(1);  // the L+1-th (output) synapse set
    }
    return counts;
  };
  const auto options_for = [&](fault::AttackKind kind) {
    theory::FepOptions options;
    options.capacity = 1.0;
    const bool crash = kind == fault::AttackKind::kRandomCrash ||
                       kind == fault::AttackKind::kTopWeightCrash ||
                       kind == fault::AttackKind::kGreedyCrash;
    options.mode =
        crash ? theory::FailureMode::kCrash : theory::FailureMode::kByzantine;
    return options;
  };

  exec::InjectorBackend injector(net);
  exec::SimulatorBackend simulator(net);
  exec::ServeBackendOptions serve_options;
  serve_options.replicas = replicas;
  exec::ServeBackend serve(net, serve_options);
  const std::vector<exec::EvalBackend*> backends{&injector, &simulator,
                                                 &serve};

  print_banner(std::cout, "panel 1 — every attack on every backend");
  std::printf("network [4,%zux%zu], %zu trials x %zu probes, %zu replicas\n\n",
              width, depth, trials, probes, replicas);
  Table table({"attack", "backend", "observed max", "fep bound", "tightness",
               "wall ms"});
  for (const auto& [attack_name, kind] : attacks) {
    fault::CampaignConfig config;
    config.attack = kind;
    config.trials = trials;
    config.probes_per_trial = probes;
    config.seed = seed + 1;
    const auto counts = counts_for(kind);
    for (exec::EvalBackend* backend : backends) {
      const auto start = std::chrono::steady_clock::now();
      const auto result =
          fault::run_campaign(net, counts, config, options_for(kind), *backend);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      table.add_row({attack_name, std::string(backend->name()),
                     Table::sci(result.observed_max, 3),
                     Table::sci(result.fep_bound, 3),
                     Table::num(result.tightness(), 4), Table::num(ms, 2)});
    }
  }
  table.print(std::cout);

  print_banner(std::cout,
               "panel 2 — campaign-scale cross-checks (transmitted-value "
               "convention)");
  Table check_table({"attack", "pair", "max divergence", "agree"});
  for (const auto& [attack_name, kind] : attacks) {
    fault::CampaignConfig config;
    config.attack = kind;
    config.trials = trials;
    config.probes_per_trial = probes;
    config.seed = seed + 1;
    // Byzantine neuron semantics only coincide across the analytic and
    // message paths under the transmitted-value convention (the simulator
    // has no nominal trace to perturb); see cross_check_campaign's docs.
    config.convention = theory::CapacityConvention::kTransmittedValueBound;
    const auto counts = counts_for(kind);
    theory::FepOptions options = options_for(kind);
    options.convention = config.convention;
    for (const auto& [pair_name, first, second] :
         std::vector<std::tuple<const char*, exec::EvalBackend*,
                                exec::EvalBackend*>>{
             {"injector vs simulator", &injector, &simulator},
             {"simulator vs serve", &simulator, &serve}}) {
      const auto check = fault::cross_check_campaign(net, counts, config,
                                                     options, *first, *second);
      check_table.add_row({attack_name, pair_name,
                           Table::sci(check.max_divergence, 3),
                           check.max_divergence == 0.0 ? "bit-equal" : "NO"});
      WNF_ASSERT(check.max_divergence == 0.0 &&
                 "backends must agree under the transmitted-value convention");
    }
  }
  check_table.print(std::cout);
  std::printf(
      "\nresult: the campaign engine is backend-agnostic — every attack runs\n"
      "on the matrix forward pass, the message-level simulator, and the\n"
      "multi-worker serving pool, and the paths agree bit-for-bit under the\n"
      "transmitted-value convention at campaign scale.\n");
  return 0;
}

// Across-probe lane path: the lane kernels against the scalar kernels on
// every dispatch variant the host supports, and the batched Injector and
// simulator against the 1-lane path they replace -- bit for bit, for probe
// counts around the block width and for every fault kind. Also pins the
// adversary searches' victims and the plan checks the lane path relies on.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dist/boosting.hpp"
#include "exec/injector_backend.hpp"
#include "exec/simulator_backend.hpp"
#include "fault/adversary.hpp"
#include "fault/injector.hpp"
#include "nn/builder.hpp"
#include "tensor/ops.hpp"

namespace wnf {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<LaneIsa> host_isas() {
  std::vector<LaneIsa> isas;
  for (LaneIsa isa : {LaneIsa::kPortable, LaneIsa::kAvx2}) {
    if (lane_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

std::vector<std::vector<double>> random_probes(std::size_t n, std::size_t dim,
                                               Rng& rng) {
  std::vector<std::vector<double>> probes(n, std::vector<double>(dim));
  for (auto& x : probes) {
    for (double& v : x) v = rng.uniform();
  }
  return probes;
}

const std::size_t kProbeCounts[] = {1, 31, 32, 33, 70};

// ------------------------------------------------------------ kernels

TEST(LaneKernels, GemvLanesEqualsGemvOnEveryIsa) {
  Rng rng(3);
  Matrix a(37, 23);
  for (double& v : a.flat()) v = rng.normal();
  a(4, 5) = -0.0;  // signed zeros and exact cancellations keep their bits
  std::vector<double> x(a.cols() * kLanes);
  for (double& v : x) v = rng.normal() * 1e3;
  for (LaneIsa isa : host_isas()) {
    std::vector<double> y(a.rows() * kLanes);
    gemv_lanes(a, x, y, isa);
    for (std::size_t b = 0; b < kLanes; ++b) {
      std::vector<double> column(a.cols());
      for (std::size_t c = 0; c < a.cols(); ++c) column[c] = x[c * kLanes + b];
      std::vector<double> expect(a.rows());
      gemv(a, column, expect);
      for (std::size_t r = 0; r < a.rows(); ++r) {
        ASSERT_EQ(bits(y[r * kLanes + b]), bits(expect[r]))
            << "isa " << static_cast<int>(isa) << " row " << r << " lane " << b;
      }
    }
  }
}

TEST(LaneKernels, GemvCsrLanesEqualsGemvCsrOnEveryIsa) {
  Rng rng(5);
  const auto topo = nn::LayerTopology::random_sparse(29, 41, 0.3, rng);
  Matrix a(29, 41);
  for (double& v : a.flat()) v = rng.normal();
  std::vector<double> x(a.cols() * kLanes);
  for (double& v : x) v = rng.normal();
  for (LaneIsa isa : host_isas()) {
    std::vector<double> y(a.rows() * kLanes);
    gemv_csr_lanes(a, topo.row_ptr(), topo.cols(), x, y, isa);
    for (std::size_t b = 0; b < kLanes; ++b) {
      std::vector<double> column(a.cols());
      for (std::size_t c = 0; c < a.cols(); ++c) column[c] = x[c * kLanes + b];
      std::vector<double> expect(a.rows());
      gemv_csr(a, topo.row_ptr(), topo.cols(), column, expect);
      for (std::size_t r = 0; r < a.rows(); ++r) {
        ASSERT_EQ(bits(y[r * kLanes + b]), bits(expect[r]))
            << "isa " << static_cast<int>(isa) << " row " << r << " lane " << b;
      }
    }
  }
}

TEST(LaneKernels, BlocksCoverEveryProbeOnceInOrder) {
  for (std::size_t n : {0, 1, 15, 16, 31, 32, 33, 48, 70}) {
    std::vector<std::size_t> seen;
    std::size_t blocks = 0;
    for_each_lane_block(
        n,
        [&](std::size_t begin, std::size_t count) {
          EXPECT_GE(count, kLanes / 2);
          for (std::size_t i = begin; i < begin + count; ++i) seen.push_back(i);
          ++blocks;
        },
        [&](std::size_t i) { seen.push_back(i); });
    ASSERT_EQ(seen.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], i);
    EXPECT_EQ(blocks, n / kLanes + (n % kLanes >= kLanes / 2 ? 1 : 0));
  }
}

// ------------------------------------------------------- fault plans

nn::FeedForwardNetwork dense_net() {
  Rng rng(11);
  return nn::NetworkBuilder(3)
      .activation(nn::ActivationKind::kSigmoid, 1.0)
      .hidden(12)
      .hidden(9)
      .init(nn::InitKind::kUniform, 0.7)
      .build(rng);
}

/// Sparse layers whose per-edge capacities bind (0.4 < sigmoid's range).
nn::FeedForwardNetwork capped_sparse_net() {
  Rng rng(13);
  auto net = nn::NetworkBuilder(3)
                 .activation(nn::ActivationKind::kSigmoid, 1.0)
                 .topology(nn::Topology::random_sparse(0.5))
                 .hidden(12)
                 .hidden(9)
                 .init(nn::InitKind::kUniform, 0.7)
                 .build(rng);
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    nn::LayerTopology topo = *net.layer(l).topology();
    topo.set_uniform_edge_capacity(0.4);
    net.layer(l).set_topology(std::move(topo));
  }
  return net;
}

/// One plan per fault kind, plus a mix; every synapse fault sits on an
/// existing edge, one of them in the output set (layer L+1).
std::vector<fault::FaultPlan> plans_for(const nn::FeedForwardNetwork& net) {
  using fault::NeuronFaultKind;
  using fault::SynapseFaultKind;
  const auto edge = [&](std::size_t l, std::size_t k) {
    const nn::LayerTopology* topo = net.layer(l).topology();
    if (topo == nullptr) return std::pair<std::size_t, std::size_t>{k % 5, k};
    return std::pair<std::size_t, std::size_t>{topo->edge_row(k),
                                               topo->cols()[k]};
  };
  const auto [to1, from1] = edge(1, 1);
  const auto [to2, from2] = edge(2, 3);
  std::vector<fault::FaultPlan> plans(7);
  plans[0].neurons = {{1, 2, NeuronFaultKind::kCrash, 0.0},
                      {2, 4, NeuronFaultKind::kCrash, 0.0}};
  plans[1].neurons = {{1, 5, NeuronFaultKind::kByzantine, 2.5},
                      {2, 0, NeuronFaultKind::kByzantine, -0.7}};
  plans[1].convention = theory::CapacityConvention::kTransmittedValueBound;
  plans[2] = plans[1];  // the same victims as perturbations
  plans[2].convention = theory::CapacityConvention::kPerturbationBound;
  plans[3].neurons = {{1, 7, NeuronFaultKind::kStuckAt, 1.0},
                      {2, 3, NeuronFaultKind::kStuckAt, 0.0}};
  plans[4].synapses = {{1, to1, from1, SynapseFaultKind::kCrash, 0.0},
                       {2, to2, from2, SynapseFaultKind::kCrash, 0.0},
                       {3, 0, 4, SynapseFaultKind::kCrash, 0.0}};
  plans[5].synapses = {{1, to1, from1, SynapseFaultKind::kByzantine, -1.0},
                       {2, to2, from2, SynapseFaultKind::kByzantine, 1.0},
                       {3, 0, 6, SynapseFaultKind::kByzantine, 1.0}};
  plans[6].neurons = plans[0].neurons;
  plans[6].neurons.push_back({2, 8, NeuronFaultKind::kByzantine, 0.9});
  plans[6].synapses = {{2, to2, from2, SynapseFaultKind::kCrash, 0.0},
                       {3, 0, 1, SynapseFaultKind::kByzantine, -1.0}};
  for (const auto& plan : plans) fault::validate_plan(plan, net);
  return plans;
}

TEST(LanePath, InjectorBlocksEqualOneLanePath) {
  for (const auto& net : {dense_net(), capped_sparse_net()}) {
    Rng rng(17);
    fault::Injector injector(net);
    for (std::size_t n : kProbeCounts) {
      const auto probes = random_probes(n, net.input_dim(), rng);
      std::vector<double> clean(n);
      injector.nominal(probes, clean);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(clean[i]), bits(net.evaluate(probes[i]))) << n;
      }
      for (const auto& plan : plans_for(net)) {
        std::vector<double> hurt(n);
        injector.damaged(plan, probes, hurt);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(hurt[i]), bits(injector.damaged(plan, probes[i])))
              << "n " << n << " probe " << i;
        }
      }
    }
  }
}

/// FNV-1a over the outputs' bit patterns: one exact-bit fingerprint.
std::uint64_t fingerprint(std::span<const double> values) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (double v : values) {
    hash ^= bits(v);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

TEST(LanePath, PerturbationByzantineGoldenBits) {
  // Exact output bits of Byzantine neurons under the perturbation
  // convention (plans 2 and 6: alone, and mixed with crashes and synapse
  // faults), probe by probe and in blocks of 20, 48 and 70 probes. The
  // constants were captured from the per-probe nominal-trace
  // implementation these plans used to run on.
  const std::uint64_t kSingle[2][2] = {
      {0x20ce114a22a9bcd7ull, 0x66be1878f87f6e81ull},
      {0x7d3ee6b88a9e0468ull, 0xae790e1fdb694018ull}};
  const std::uint64_t kBlocks[2][2] = {
      {0x5c1d4dd1d59132c0ull, 0xb6c3315c4ac1f5c3ull},
      {0xe1dc3466f7b0143aull, 0x86552e90b0d40a9dull}};
  const nn::FeedForwardNetwork nets[] = {dense_net(), capped_sparse_net()};
  for (std::size_t k = 0; k < 2; ++k) {
    const auto& net = nets[k];
    const auto plans = plans_for(net);
    for (std::size_t p = 0; p < 2; ++p) {
      const auto& plan = plans[p == 0 ? 2 : 6];
      ASSERT_TRUE(plan.has_byzantine_neurons());
      ASSERT_EQ(plan.convention,
                theory::CapacityConvention::kPerturbationBound);
      fault::Injector injector(net);
      Rng rng(19);
      const auto singles = random_probes(24, net.input_dim(), rng);
      std::vector<double> single_out;
      for (const auto& x : singles) {
        single_out.push_back(injector.damaged(plan, x));
      }
      std::vector<double> block_out;
      for (std::size_t n : {20, 48, 70}) {
        const auto probes = random_probes(n, net.input_dim(), rng);
        std::vector<double> hurt(n);
        injector.damaged(plan, probes, hurt);
        block_out.insert(block_out.end(), hurt.begin(), hurt.end());
      }
      EXPECT_EQ(fingerprint(single_out), kSingle[k][p])
          << std::hex << "net " << k << " plan " << p << " single 0x"
          << fingerprint(single_out);
      EXPECT_EQ(fingerprint(block_out), kBlocks[k][p])
          << std::hex << "net " << k << " plan " << p << " blocks 0x"
          << fingerprint(block_out);
    }
  }
}

/// The 1-lane reference for SimulatorBackend::run_trials: trial t's
/// latency stream is the t-th split, drawn probe by probe before each
/// serial evaluation.
std::vector<exec::TrialResult> serial_sim_trials(
    const nn::FeedForwardNetwork& net, const exec::SimulatorBackendOptions& o,
    const std::vector<std::size_t>& wait_counts,
    std::span<const exec::Trial> trials) {
  Rng seeder(o.latency_seed);
  std::vector<exec::TrialResult> results(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    Rng rng = seeder.split();
    dist::NetworkSimulator sim(net, o.sim);
    if (!trials[t].plan.empty()) sim.apply_faults(trials[t].plan);
    for (const auto& x : trials[t].probes) {
      sim.sample_latencies(o.latency, rng);
      const auto r = wait_counts.empty()
                         ? sim.evaluate(x)
                         : sim.evaluate_boosted(x, wait_counts, o.policy);
      results[t].probes.push_back({r.output, r.completion_time, r.resets_sent});
    }
    exec::finish_trial(trials[t], results[t]);
  }
  return results;
}

void expect_same_probes(const std::vector<exec::TrialResult>& got,
                        const std::vector<exec::TrialResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].probes.size(), want[t].probes.size());
    for (std::size_t i = 0; i < got[t].probes.size(); ++i) {
      const auto& a = got[t].probes[i];
      const auto& b = want[t].probes[i];
      ASSERT_EQ(bits(a.output), bits(b.output)) << "trial " << t << " " << i;
      ASSERT_EQ(bits(a.completion_time), bits(b.completion_time))
          << "trial " << t << " probe " << i;
      ASSERT_EQ(a.resets_sent, b.resets_sent) << "trial " << t << " " << i;
    }
  }
}

std::vector<exec::Trial> trials_for(const nn::FeedForwardNetwork& net,
                                    std::size_t n, Rng& rng) {
  std::vector<exec::Trial> trials;
  for (const auto& plan : plans_for(net)) {
    trials.push_back(
        exec::make_trial(net, plan, random_probes(n, net.input_dim(), rng)));
  }
  trials.push_back(exec::make_trial(net, fault::FaultPlan{},
                                    random_probes(n, net.input_dim(), rng)));
  return trials;
}

TEST(LanePath, SimulatorBlocksEqualOneLanePath) {
  // No cut, and a kZero cut (reaching the output synapse set) under
  // heavy-tail latencies and a binding channel (C = 0.8): through the
  // backend and through the simulator's lane API directly.
  for (const auto& net : {dense_net(), capped_sparse_net()}) {
    for (bool cut : {false, true}) {
      exec::SimulatorBackendOptions options;
      options.sim.capacity = 0.8;
      options.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
      options.latency_seed = 19;
      std::vector<std::size_t> waits;
      if (cut) {
        options.straggler_cut = {1, 3};
        waits = dist::wait_counts_from_cut(net, options.straggler_cut);
      }
      Rng rng(23);
      for (std::size_t n : kProbeCounts) {
        const auto trials = trials_for(net, n, rng);
        const auto want = serial_sim_trials(net, options, waits, trials);
        exec::SimulatorBackend backend(net, options);
        expect_same_probes(backend.run_trials(trials), want);

        std::vector<exec::TrialResult> got(trials.size());
        Rng seeder(options.latency_seed);
        for (std::size_t t = 0; t < trials.size(); ++t) {
          Rng stream = seeder.split();
          dist::NetworkSimulator sim(net, options.sim);
          if (!trials[t].plan.empty()) sim.apply_faults(trials[t].plan);
          const auto& probes = trials[t].probes;
          for (std::size_t begin = 0; begin < n; begin += kLanes) {
            const std::size_t count = std::min(kLanes, n - begin);
            for (std::size_t b = 0; b < count; ++b) {
              sim.sample_lane_latencies(b, options.latency, stream);
            }
            std::vector<dist::SimResult> block(count);
            sim.evaluate_lanes(std::span(probes).subspan(begin, count),
                               waits, block);
            for (const auto& r : block) {
              got[t].probes.push_back(
                  {r.output, r.completion_time, r.resets_sent});
            }
          }
        }
        expect_same_probes(got, want);
      }
    }
  }
}

TEST(LanePath, SimulatorLaneBlockLeavesLastProbesHistory) {
  // A hold-last evaluation after a block reads what the block's last probe
  // transmitted, exactly as after the serial evaluations.
  const auto net = dense_net();
  Rng rng(29);
  const auto probes = random_probes(20, net.input_dim(), rng);
  const std::vector<std::size_t> waits{3, 4, 6};
  const dist::LatencyModel latency{dist::LatencyKind::kUniform, 1.0, 4.0, 0.0};
  dist::NetworkSimulator serial(net, dist::SimConfig{});
  dist::NetworkSimulator lanes(net, dist::SimConfig{});
  Rng serial_rng(31);
  Rng lane_rng(31);
  for (const auto& x : probes) {
    serial.sample_latencies(latency, serial_rng);
    serial.evaluate_boosted(x, waits);
  }
  for (std::size_t b = 0; b < probes.size(); ++b) {
    lanes.sample_lane_latencies(b, latency, lane_rng);
  }
  std::vector<dist::SimResult> block(probes.size());
  lanes.evaluate_lanes(probes, waits, block);
  serial.sample_latencies(latency, serial_rng);
  lanes.sample_latencies(latency, lane_rng);
  const auto& x = probes.front();
  EXPECT_EQ(
      bits(serial.evaluate_boosted(x, waits, dist::ResetPolicy::kHoldLast)
               .output),
      bits(lanes.evaluate_boosted(x, waits, dist::ResetPolicy::kHoldLast)
               .output));
}

TEST(LanePath, BackendsBatchedEqualSerialInterface) {
  // run_trials and the adversary-scoring primitive against the base class's
  // install/evaluate reference, on both backends and every fault kind.
  for (const auto& net : {dense_net(), capped_sparse_net()}) {
    exec::SimulatorBackendOptions cut;
    cut.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
    cut.straggler_cut = {1, 2};
    exec::InjectorBackend injector(net);
    exec::SimulatorBackend lanes(net, cut);
    exec::SimulatorBackend reference(net, cut);  // same split stream
    Rng rng(37);
    for (std::size_t n : kProbeCounts) {
      const auto trials = trials_for(net, n, rng);
      const auto batched = injector.run_trials(trials);
      const auto serial = injector.EvalBackend::run_trials(trials);
      expect_same_probes(batched, serial);
      for (std::size_t t = 0; t < trials.size(); ++t) {
        EXPECT_EQ(bits(batched[t].worst_error), bits(serial[t].worst_error));
      }
      for (const auto& trial : trials) {
        std::vector<double> got(n);
        std::vector<double> want(n);
        injector.damaged_outputs(trial.plan, trial.probes, got);
        injector.EvalBackend::damaged_outputs(trial.plan, trial.probes, want);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(got[i]), bits(want[i])) << "injector " << i;
        }
        lanes.damaged_outputs(trial.plan, trial.probes, got);
        reference.EvalBackend::damaged_outputs(trial.plan, trial.probes, want);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(got[i]), bits(want[i])) << "simulator " << i;
        }
      }
    }
  }
}

TEST(LanePath, HoldLastTrialsRunProbeByProbe) {
  const auto net = dense_net();
  exec::SimulatorBackendOptions options;
  options.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
  options.straggler_cut = {1, 2};
  options.policy = dist::ResetPolicy::kHoldLast;
  Rng rng(41);
  const auto trials = trials_for(net, 40, rng);
  Rng seeder(options.latency_seed);
  const auto waits = dist::wait_counts_from_cut(net, options.straggler_cut);
  std::vector<exec::TrialResult> want(trials.size());
  for (std::size_t t = 0; t < trials.size(); ++t) {
    Rng stream = seeder.split();
    dist::NetworkSimulator sim(net, options.sim);
    if (!trials[t].plan.empty()) sim.apply_faults(trials[t].plan);
    for (const auto& x : trials[t].probes) {
      sim.sample_latencies(options.latency, stream);
      const auto r =
          sim.evaluate_boosted(x, waits, dist::ResetPolicy::kHoldLast);
      want[t].probes.push_back({r.output, r.completion_time, r.resets_sent});
    }
  }
  exec::SimulatorBackend backend(net, options);
  expect_same_probes(backend.run_trials(trials), want);
}

TEST(LanePath, LaneDrawLeavesPinnedSerialLatencies) {
  // Lane draws go straight to their lane row: a serial evaluate() after one
  // still runs on the latencies set_latencies pinned.
  const auto net = dense_net();
  dist::NetworkSimulator sim(net, dist::SimConfig{});
  std::vector<std::vector<double>> pinned;
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    pinned.emplace_back(net.layer_width(l), 2.0 * double(l));
  }
  sim.set_latencies(pinned);
  const std::vector<double> x(net.input_dim(), 0.5);
  const double want = sim.evaluate(x).completion_time;
  EXPECT_EQ(want, 2.0 + 4.0);  // layer 1 fires at 2, layer 2 two rounds on
  Rng rng(53);
  sim.sample_lane_latencies(kLanes - 1,
                            {dist::LatencyKind::kUniform, 1.0, 4.0, 0.0}, rng);
  EXPECT_EQ(bits(sim.evaluate(x).completion_time), bits(want));
}

// ------------------------------------------- evaluator reuse in run_trials

/// 72 trials cycling through every plans_for plan (a perturbation-convention
/// Byzantine one among them) and an empty plan, so on a 4-worker pool each
/// parallel_for_chunks chunk runs several trials of different kinds on one
/// reused evaluator, an empty trial right after a faulty one.
std::vector<exec::Trial> interleaved_trials(const nn::FeedForwardNetwork& net,
                                            std::size_t n, Rng& rng) {
  const auto plans = plans_for(net);
  std::vector<exec::Trial> trials;
  for (std::size_t t = 0; t < 72; ++t) {
    const std::size_t k = t % (plans.size() + 1);
    trials.push_back(exec::make_trial(
        net, k < plans.size() ? plans[k] : fault::FaultPlan{},
        random_probes(n, net.input_dim(), rng)));
  }
  return trials;
}

void expect_same_trials(const std::vector<exec::TrialResult>& got,
                        const std::vector<exec::TrialResult>& want) {
  expect_same_probes(got, want);
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(bits(got[t].worst_error), bits(want[t].worst_error))
        << "trial " << t;
  }
}

/// Each trial run alone through a fresh backend made by `make`.
template <class MakeBackend>
std::vector<exec::TrialResult> one_backend_per_trial(
    std::span<const exec::Trial> trials, MakeBackend&& make) {
  std::vector<exec::TrialResult> results;
  for (const exec::Trial& trial : trials) {
    auto backend = make();
    results.push_back(backend.run_trials({&trial, 1}).front());
  }
  return results;
}

TEST(LanePath, ReuseCarriesNothingInjectorBackend) {
  for (const auto& net : {dense_net(), capped_sparse_net()}) {
    Rng rng(43);
    for (std::size_t n : {15, 16, 32, 40}) {
      const auto trials = interleaved_trials(net, n, rng);
      exec::InjectorBackend backend(net);
      expect_same_trials(
          backend.run_trials(trials),
          one_backend_per_trial(
              trials, [&] { return exec::InjectorBackend(net); }));
    }
  }
}

TEST(LanePath, ReuseCarriesNothingConstantLatencySimulator) {
  // A draw-free model fills the lanes once per simulator; completion times
  // must still read 1.5 per round, as the serial per-probe draws give.
  for (const auto& net : {dense_net(), capped_sparse_net()}) {
    exec::SimulatorBackendOptions options;
    options.sim.capacity = 0.8;
    options.latency = {dist::LatencyKind::kConstant, 1.5, 0.0, 0.0};
    Rng rng(47);
    for (std::size_t n : {15, 16, 32, 40}) {
      const auto trials = interleaved_trials(net, n, rng);
      exec::SimulatorBackend backend(net, options);
      const auto got = backend.run_trials(trials);
      expect_same_trials(got, serial_sim_trials(net, options, {}, trials));
      expect_same_trials(
          got, one_backend_per_trial(trials, [&] {
            return exec::SimulatorBackend(net, options);
          }));
    }
  }
}

TEST(LanePath, ReuseCarriesNothingHeavyTailCutSimulator) {
  // Blocks of 20 leave padding lanes holding the previous trial's draws.
  for (const auto& net : {dense_net(), capped_sparse_net()}) {
    exec::SimulatorBackendOptions options;
    options.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
    options.straggler_cut = {1, 3};
    options.latency_seed = 59;
    const auto waits = dist::wait_counts_from_cut(net, options.straggler_cut);
    Rng rng(61);
    for (std::size_t n : {20, 40}) {
      const auto trials = interleaved_trials(net, n, rng);
      exec::SimulatorBackend backend(net, options);
      expect_same_trials(backend.run_trials(trials),
                         serial_sim_trials(net, options, waits, trials));
    }
  }
}

TEST(LanePath, ReuseCarriesNothingHoldLastSimulator) {
  // Each trial starts with no history, even on a simulator whose previous
  // trial (faulty or not) left one.
  const auto net = dense_net();
  exec::SimulatorBackendOptions options;
  options.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.3};
  options.straggler_cut = {1, 2};
  options.policy = dist::ResetPolicy::kHoldLast;
  const auto waits = dist::wait_counts_from_cut(net, options.straggler_cut);
  Rng rng(67);
  const auto trials = interleaved_trials(net, 6, rng);
  exec::SimulatorBackend backend(net, options);
  expect_same_trials(backend.run_trials(trials),
                     serial_sim_trials(net, options, waits, trials));
}

// ---------------------------------------------------- adversary pins

TEST(LanePath, InjectorCrashErrorsEqualReferenceScorer) {
  // The cached-prefix scorer against the base class's loop over
  // worst_output_error, bit for bit: probe counts for a 1-lane tail, a tail
  // just under a block, a padded block, a full block, and a block plus tail;
  // bases with no fault, with crash and stuck-at faults in the candidates'
  // layer and above, and with perturbation-convention Byzantine neurons
  // (the lockstep pass), on a dense and a sparse net.
  using fault::NeuronFaultKind;
  for (const auto& net : {dense_net(), capped_sparse_net()}) {
    std::vector<fault::FaultPlan> bases(3);
    bases[1].neurons = {{1, 2, NeuronFaultKind::kCrash, 0.0},
                        {1, 7, NeuronFaultKind::kStuckAt, 1.0},
                        {2, 3, NeuronFaultKind::kStuckAt, 0.0},
                        {2, 4, NeuronFaultKind::kCrash, 0.0}};
    bases[1].synapses = plans_for(net)[4].synapses;
    bases[2] = plans_for(net)[2];  // Byzantine perturbations at (1,5), (2,0)
    bases[2].neurons.push_back({2, 6, NeuronFaultKind::kCrash, 0.0});
    ASSERT_EQ(bases[2].convention,
              theory::CapacityConvention::kPerturbationBound);
    Rng rng(71);
    for (std::size_t n : {1, 15, 16, 32, 40}) {
      const auto probes = random_probes(n, net.input_dim(), rng);
      std::vector<double> nominal(n);
      exec::nominal_outputs(net, probes, nominal);
      for (std::size_t b = 0; b < bases.size(); ++b) {
        for (std::size_t layer = 1; layer <= net.layer_count(); ++layer) {
          std::vector<std::size_t> candidates;
          for (std::size_t i = 0; i < net.layer_width(layer); ++i) {
            bool faulted = false;
            for (const auto& f : bases[b].neurons) {
              faulted = faulted || (f.layer == layer && f.neuron == i);
            }
            if (!faulted) candidates.push_back(i);
          }
          exec::InjectorBackend injector(net);
          std::vector<double> got(candidates.size(), -1.0);
          std::vector<double> want(candidates.size(), -1.0);
          injector.crash_errors(bases[b], layer, candidates, probes, nominal,
                                got);
          injector.EvalBackend::crash_errors(bases[b], layer, candidates,
                                             probes, nominal, want);
          double largest = 0.0;
          for (std::size_t k = 0; k < candidates.size(); ++k) {
            ASSERT_EQ(bits(got[k]), bits(want[k]))
                << "n " << n << " base " << b << " layer " << layer
                << " candidate " << candidates[k];
            largest = std::max(largest, got[k]);
          }
          EXPECT_GT(largest, 0.0) << "n " << n << " base " << b;
        }
      }
    }
  }
}

TEST(LanePath, AdversaryVictimsPinnedOnFixedSeed) {
  // 40 probes: one full block plus a 1-lane tail. The victims and worst
  // errors were recorded from the probe-by-probe scorer and must not move.
  Rng rng(101);
  const auto net = nn::NetworkBuilder(4)
                       .activation(nn::ActivationKind::kSigmoid, 1.0)
                       .hidden(16)
                       .hidden(12)
                       .init(nn::InitKind::kScaledUniform, 0.8)
                       .build(rng);
  Rng probe_rng(103);
  const auto probes = random_probes(40, 4, probe_rng);
  exec::InjectorBackend injector(net);
  exec::SimulatorBackendOptions options;
  options.latency = {dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.2};
  options.straggler_cut = {1, 2};
  options.latency_seed = 107;
  exec::SimulatorBackend simulator(net, options);

  using Victims = std::vector<std::pair<std::size_t, std::size_t>>;
  const auto victims = [](const fault::FaultPlan& plan) {
    Victims out;
    for (const auto& f : plan.neurons) out.emplace_back(f.layer, f.neuron);
    return out;
  };
  const std::vector<std::size_t> counts{2, 2};
  EXPECT_EQ(victims(fault::greedy_worst_crash_plan(net, counts, probes,
                                                   injector)),
            (Victims{{1, 15}, {1, 3}, {2, 9}, {2, 11}}));
  EXPECT_EQ(victims(fault::greedy_worst_crash_plan(net, counts, probes,
                                                   simulator)),
            (Victims{{1, 7}, {1, 13}, {2, 1}, {2, 3}}));
  double worst = 0.0;
  EXPECT_EQ(victims(fault::exhaustive_worst_crash_plan(net, 2, 2, probes,
                                                       worst, injector)),
            (Victims{{2, 1}, {2, 8}}));
  EXPECT_EQ(worst, 0.26651528544398806);
  EXPECT_EQ(victims(fault::exhaustive_worst_crash_plan(net, 2, 2, probes,
                                                       worst, simulator)),
            (Victims{{2, 3}, {2, 7}}));
  EXPECT_EQ(worst, 0.3672813844169005);
}

// ------------------------------------------------------ plan checks

TEST(LanePathDeathTest, NonFiniteAndOutOfRangePlansAbortOnBothBackends) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto net = dense_net();
  Rng rng(43);
  const auto probes = random_probes(32, net.input_dim(), rng);
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<fault::FaultPlan> bad;
  for (double value : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    fault::FaultPlan neuron;
    neuron.convention = theory::CapacityConvention::kTransmittedValueBound;
    neuron.neurons = {{1, 0, fault::NeuronFaultKind::kByzantine, value}};
    fault::FaultPlan synapse;
    synapse.synapses = {{2, 1, 1, fault::SynapseFaultKind::kByzantine, value}};
    bad.push_back(neuron);
    bad.push_back(synapse);
  }
  fault::FaultPlan neuron_range;
  neuron_range.neurons = {{2, 9, fault::NeuronFaultKind::kCrash, 0.0}};
  fault::FaultPlan synapse_range;
  synapse_range.synapses = {{3, 0, 9, fault::SynapseFaultKind::kCrash, 0.0}};
  bad.push_back(neuron_range);
  bad.push_back(synapse_range);

  for (const auto& plan : bad) {
    const std::vector<exec::Trial> trials{exec::make_trial(net, plan, probes)};
    EXPECT_DEATH(fault::validate_plan(plan, net), "precondition");
    EXPECT_DEATH(exec::InjectorBackend(net).run_trials(trials), "precondition");
    EXPECT_DEATH(exec::SimulatorBackend(net).run_trials(trials),
                 "precondition");
    std::vector<double> out(probes.size());
    EXPECT_DEATH(exec::InjectorBackend(net).damaged_outputs(plan, probes, out),
                 "precondition");
    EXPECT_DEATH(
        exec::SimulatorBackend(net).damaged_outputs(plan, probes, out),
        "precondition");
  }
}

TEST(LanePathDeathTest, CrashCandidateAlreadyFaultedInBaseAborts) {
  // The reference scorer's plan would hold two faults on one neuron, which
  // validate_plan rejects; the cached-prefix scorer rejects it too.
  const auto net = dense_net();
  Rng rng(47);
  const auto probes = random_probes(32, net.input_dim(), rng);
  std::vector<double> nominal(probes.size());
  exec::nominal_outputs(net, probes, nominal);
  fault::FaultPlan base;
  base.neurons = {{1, 4, fault::NeuronFaultKind::kStuckAt, 1.0}};
  const std::vector<std::size_t> candidates{3, 4};
  std::vector<double> errors(candidates.size());
  exec::InjectorBackend injector(net);
  EXPECT_DEATH(injector.crash_errors(base, 1, candidates, probes, nominal,
                                     errors),
               "precondition");
  EXPECT_DEATH(injector.EvalBackend::crash_errors(base, 1, candidates, probes,
                                                  nominal, errors),
               "precondition");
}

}  // namespace
}  // namespace wnf

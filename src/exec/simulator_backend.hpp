// The systems-path backend: dist::NetworkSimulator behind the EvalBackend
// seam. Exposes the pieces the simulator adds over the Injector — a latency
// model (per-trial, per-neuron draws) and Corollary-2 boosted straggler
// cuts — so campaigns can measure completion time and reset traffic, not
// just output error.
#pragma once

#include "dist/latency.hpp"
#include "dist/sim.hpp"
#include "exec/backend.hpp"
#include "util/rng.hpp"

namespace wnf::exec {

/// Shape of one simulator-backed execution path.
struct SimulatorBackendOptions {
  dist::SimConfig sim;  ///< Assumption-1 channel capacity (clamp)
  /// Optional Corollary-2 straggler cut, size L (empty = full waits),
  /// realized end to end via dist::wait_counts_from_cut.
  std::vector<std::size_t> straggler_cut;
  dist::ResetPolicy policy = dist::ResetPolicy::kZero;
  dist::LatencyModel latency;   ///< defaults to an instantaneous network
  std::uint64_t latency_seed = 0x5eed;  ///< root of the latency split tree
};

/// Wraps dist::NetworkSimulator. The serial install/evaluate path draws one
/// latency configuration per probe from a sequential split stream; the
/// batched run_trials path precomputes one child stream per trial (the t-th
/// split of latency_seed), so results are bit-identical whatever the thread
/// scheduling. Outputs are latency-independent unless a cut is active.
/// Both run_trials and damaged_outputs evaluate probes in across-probe
/// blocks (NetworkSimulator::evaluate_lanes), drawing each lane's latencies
/// in probe order, so they return what probe-by-probe evaluation would;
/// under the kHoldLast policy each probe reads the previous probe's
/// history, so those run probe by probe.
class SimulatorBackend final : public EvalBackend {
 public:
  explicit SimulatorBackend(const nn::FeedForwardNetwork& net,
                            SimulatorBackendOptions options = {});

  std::string_view name() const override { return "simulator"; }
  const nn::FeedForwardNetwork& network() const override { return net_; }
  void install(const fault::FaultPlan& plan) override;
  void clear() override;
  ProbeResult evaluate(std::span<const double> x) override;
  void damaged_outputs(const fault::FaultPlan& plan,
                       std::span<const std::vector<double>> probes,
                       std::span<double> outputs) override;
  std::vector<TrialResult> run_trials(std::span<const Trial> trials) override;

  /// The serial-path simulator (e.g. to pin latencies for a bench).
  dist::NetworkSimulator& simulator() { return sim_; }
  const SimulatorBackendOptions& options() const { return options_; }

 private:
  ProbeResult run_probe(dist::NetworkSimulator& sim, Rng& latency_rng,
                        std::span<const double> x) const;

  /// Evaluates `probes` on `sim` into `out`, in across-probe blocks where
  /// the policy allows; probe i's latencies come from latency_rng(i),
  /// called once per probe in probe order.
  template <class LatencyRng>
  void run_probes(dist::NetworkSimulator& sim,
                  std::span<const std::vector<double>> probes,
                  LatencyRng&& latency_rng, std::span<ProbeResult> out) const;

  const nn::FeedForwardNetwork& net_;
  SimulatorBackendOptions options_;
  std::vector<std::size_t> wait_counts_;  ///< size L+1; empty = full waits
  dist::NetworkSimulator sim_;            ///< serial-path evaluator
  Rng latency_root_;                      ///< serial-path split stream
};

}  // namespace wnf::exec

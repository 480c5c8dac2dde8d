// The analytic-path backend: fault::Injector behind the EvalBackend seam.
// This is the "costly experiment" the paper contrasts with its bound — a
// matrix forward pass (fault::layer_step, layer after layer) with no clock,
// so completion metadata is zero.
#pragma once

#include "exec/backend.hpp"
#include "fault/injector.hpp"

namespace wnf::exec {

/// Wraps one fault::Injector. run_trials parallelises over the thread pool
/// with one Injector per parallel_for_chunks chunk, reused for the chunk's
/// trials, and evaluates each trial's probes
/// in across-probe blocks, reproducing bit-for-bit what the pre-backend
/// fault::run_campaign computed. crash_errors resumes every greedy
/// candidate from one cached layer prefix (Injector::crash_errors). Every
/// plan is validated before it runs.
class InjectorBackend final : public EvalBackend {
 public:
  explicit InjectorBackend(const nn::FeedForwardNetwork& net);

  std::string_view name() const override { return "injector"; }
  const nn::FeedForwardNetwork& network() const override { return net_; }
  void install(const fault::FaultPlan& plan) override;
  void clear() override;
  ProbeResult evaluate(std::span<const double> x) override;
  void damaged_outputs(const fault::FaultPlan& plan,
                       std::span<const std::vector<double>> probes,
                       std::span<double> outputs) override;
  void crash_errors(const fault::FaultPlan& base, std::size_t layer,
                    std::span<const std::size_t> candidates,
                    std::span<const std::vector<double>> probes,
                    std::span<const double> nominal,
                    std::span<double> errors) override;
  std::vector<TrialResult> run_trials(std::span<const Trial> trials) override;

 private:
  const nn::FeedForwardNetwork& net_;
  fault::Injector injector_;  ///< serial-path evaluator
  fault::FaultPlan plan_;
};

}  // namespace wnf::exec

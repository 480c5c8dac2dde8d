// Executes fault plans: runs the shared fault layer step (layer_step.hpp)
// through the network, with no clock and no channel. This is the
// experimental counterpart of Fep — the "costly experiment" path the paper
// contrasts with its analytic bound.
#pragma once

#include <span>

#include "fault/plan.hpp"
#include "nn/network.hpp"

namespace wnf::fault {

/// Stateful evaluator bound to one network. Reusable across plans/inputs;
/// not thread-safe (one Injector per worker in parallel campaigns).
class Injector {
 public:
  explicit Injector(const nn::FeedForwardNetwork& net);

  /// Nominal (undamaged) output for `x`.
  double nominal(std::span<const double> x);

  /// Output with `plan`'s faults applied. Byzantine neuron faults under the
  /// perturbation convention are applied relative to the *nominal* y^(l)
  /// (the faulty neuron overrides its output; it does not relay upstream
  /// damage — matching Theorem 2's worst-case model).
  double damaged(const FaultPlan& plan, std::span<const double> x);

  /// Fault-free outputs of `probes` into `out` (same size), evaluated in
  /// across-probe blocks of kLanes; out[i] equals nominal(probes[i]) bit for
  /// bit.
  void nominal(std::span<const std::vector<double>> probes,
               std::span<double> out);

  /// Damaged outputs of `probes` under `plan` into `out` (same size), in
  /// across-probe blocks; out[i] equals damaged(plan, probes[i]) bit for
  /// bit. Like every Injector entry point, `plan` must pass validate_plan
  /// for this network (the backends check it).
  void damaged(const FaultPlan& plan,
               std::span<const std::vector<double>> probes,
               std::span<double> out);

  /// |nominal - damaged| for `x`.
  double output_error(const FaultPlan& plan, std::span<const double> x);

  /// max over `inputs` of output_error.
  double worst_output_error(const FaultPlan& plan,
                            std::span<const std::vector<double>> inputs);

 private:
  /// The damaged forward pass for Lanes probes: `x` is input_dim x Lanes,
  /// lane-major; writes the Lanes outputs to `out`. Plans with a Byzantine
  /// neuron under the perturbation convention also run the fault-free step
  /// in lockstep and hand it each layer's nominal y^(l).
  template <std::size_t Lanes>
  void forward(const FaultPlan& plan, std::span<const double> x,
               std::span<double> out);

  /// Runs forward<kLanes> or forward<1> over `probes` (for_each_lane_block).
  void forward_blocks(const FaultPlan& plan,
                      std::span<const std::vector<double>> probes,
                      std::span<double> out);

  const nn::FeedForwardNetwork& net_;
  std::vector<double> current_;  ///< the layer's input, lane-major
  std::vector<double> next_;     ///< the layer's output, lane-major
  std::vector<double> clean_current_;  ///< fault-free twins of current_ and
  std::vector<double> clean_next_;     ///< next_ (lockstep passes only)
  std::vector<double> block_;    ///< a block's gathered inputs
};

}  // namespace wnf::fault

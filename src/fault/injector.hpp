// Executes fault plans: runs the shared fault layer step (layer_step.hpp)
// through the network, with no clock and no channel. This is the
// experimental counterpart of Fep — the "costly experiment" path the paper
// contrasts with its analytic bound. One layer loop (start, then advance)
// serves both whole forwards and crash_errors, which scores many one-crash
// extensions of a plan by resuming each from a shared layer prefix.
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

  /// errors[k] = max over `probes` of |nominal[i] - damaged_i| under `base`
  /// plus a crash of neuron candidates[k] of `layer` appended last; equals
  /// worst_output_error on that plan bit for bit (0 when no probe differs).
  /// Per probe block, layers 1..layer run under `base` once (with the
  /// lockstep fault-free pass where `base` needs it); each candidate copies
  /// that prefix, zeroes its row and resumes at layer + 1. `base` must pass
  /// validate_plan and fault no candidate in `layer`.
  void crash_errors(const FaultPlan& base, std::size_t layer,
                    std::span<const std::size_t> candidates,
                    std::span<const std::vector<double>> probes,
                    std::span<const double> nominal, std::span<double> errors);

  /// |nominal - damaged| for `x`.
  double output_error(const FaultPlan& plan, std::span<const double> x);

  /// max over `inputs` of output_error.
  double worst_output_error(const FaultPlan& plan,
                            std::span<const std::vector<double>> inputs);

 private:
  /// Loads Lanes probes (`x` is input_dim x Lanes, lane-major) as the
  /// input of layer 1. Plans with a Byzantine neuron under the perturbation
  /// convention also start the fault-free pass that runs in lockstep.
  template <std::size_t Lanes>
  void start(const FaultPlan& plan, std::span<const double> x);

  /// Runs layers first..last under `plan` (current_ holds layer first's
  /// input on entry, y^(last) on exit), handing each step the lockstep
  /// pass's nominal y^(l) when start() began one.
  template <std::size_t Lanes>
  void advance(const FaultPlan& plan, std::size_t first, std::size_t last);

  /// The damaged forward pass for Lanes probes: start, every layer, then
  /// the output step; writes the Lanes outputs to `out`.
  template <std::size_t Lanes>
  void forward(const FaultPlan& plan, std::span<const double> x,
               std::span<double> out);

  /// crash_errors for one block of Lanes probes, folding the block's
  /// nominal.size() real lanes into `errors` by max.
  template <std::size_t Lanes>
  void crash_block(const FaultPlan& base, std::size_t layer,
                   std::span<const std::size_t> candidates,
                   std::span<const double> x, std::span<const double> nominal,
                   std::span<double> errors);

  /// Runs forward<kLanes> or forward<1> over `probes` (for_each_lane_block).
  void forward_blocks(const FaultPlan& plan,
                      std::span<const std::vector<double>> probes,
                      std::span<double> out);

  const nn::FeedForwardNetwork& net_;
  std::vector<double> current_;  ///< the layer's input, lane-major
  std::vector<double> next_;     ///< the layer's output, lane-major
  std::vector<double> clean_current_;  ///< fault-free twins of current_ and
  std::vector<double> clean_next_;     ///< next_ (lockstep passes only)
  bool lockstep_ = false;              ///< start() began a fault-free pass
  std::vector<double> prefix_;        ///< crash_block's y^(layer) under base
  std::vector<double> clean_prefix_;  ///< and its fault-free twin
  std::vector<double> block_;    ///< a block's gathered inputs
};

}  // namespace wnf::fault

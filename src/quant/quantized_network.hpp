// Reduced-precision evaluation of a network (Section V-A / Theorem 5).
//
// Two independent knobs:
//   * activation quantisation — each layer's outputs, as the fault layer
//     step (fault/layer_step.hpp) computes them, are snapped to a per-layer
//     fixed-point grid (this is the per-neuron lambda_l error Theorem 5
//     bounds: a perturbation like any other the step applies);
//   * weight quantisation — a one-off transform of the stored network
//     (changes the function; its effect is reported empirically and also
//     bounded via Theorem 5 with lambda_l derived from the weight error).
#pragma once

#include <vector>

#include "core/fep.hpp"
#include "nn/network.hpp"
#include "quant/fixed_point.hpp"

namespace wnf::quant {

/// Per-layer activation precision: bits[l-1] applies to layer l's outputs.
struct PrecisionScheme {
  std::vector<std::size_t> bits;  ///< size L
  Rounding rounding = Rounding::kNearest;
  std::uint64_t stochastic_seed = 1;  ///< used only by kStochastic

  /// Theorem 5's lambda vector: per-neuron worst-case error per layer.
  std::vector<double> lambdas() const;
};

/// Fneu(X) with layer activations quantised per `scheme`.
double evaluate_quantized(const nn::FeedForwardNetwork& net,
                          std::span<const double> x,
                          const PrecisionScheme& scheme, nn::Workspace& ws);

/// Theorem 5 bound on |Fneu - F_quantized| for `scheme` against `net`.
double quantization_error_bound(const nn::FeedForwardNetwork& net,
                                const PrecisionScheme& scheme,
                                const theory::FepOptions& options);

/// Copy of `net` with every weight and bias snapped to `bits` fractional
/// bits (round-to-nearest).
nn::FeedForwardNetwork quantize_weights(const nn::FeedForwardNetwork& net,
                                        std::size_t bits);

}  // namespace wnf::quant

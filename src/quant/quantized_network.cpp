#include "quant/quantized_network.hpp"

#include "fault/layer_step.hpp"
#include "util/contract.hpp"

namespace wnf::quant {

std::vector<double> PrecisionScheme::lambdas() const {
  std::vector<double> result;
  result.reserve(bits.size());
  for (std::size_t b : bits) {
    result.push_back(FixedPoint(b, rounding).max_error());
  }
  return result;
}

double evaluate_quantized(const nn::FeedForwardNetwork& net,
                          std::span<const double> x,
                          const PrecisionScheme& scheme, nn::Workspace& ws) {
  WNF_EXPECTS(scheme.bits.size() == net.layer_count());
  // The fault-free layer step, then each layer's outputs snapped to its
  // grid in neuron order (stochastic rounding draws in that order).
  const fault::FaultPlan no_faults;
  Rng stochastic_rng(scheme.stochastic_seed);
  auto& current = ws.buffer_a();
  auto& next = ws.buffer_b();
  current.assign(x.begin(), x.end());
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    next.resize(net.layer_width(l));
    fault::layer_step<1>(net, l, no_faults, fault::Channel{}, current, next);
    const FixedPoint q(scheme.bits[l - 1], scheme.rounding);
    for (double& value : next) value = q.quantize(value, stochastic_rng);
    std::swap(current, next);
  }
  double out = 0.0;
  fault::output_step<1>(net, no_faults, current, {&out, 1});
  return out;
}

double quantization_error_bound(const nn::FeedForwardNetwork& net,
                                const PrecisionScheme& scheme,
                                const theory::FepOptions& options) {
  WNF_EXPECTS(scheme.bits.size() == net.layer_count());
  const auto prof = theory::profile_of(net, options);
  const auto lambdas = scheme.lambdas();
  return theory::precision_error_bound(prof, lambdas, options);
}

nn::FeedForwardNetwork quantize_weights(const nn::FeedForwardNetwork& net,
                                        std::size_t bits) {
  const FixedPoint q(bits, Rounding::kNearest);
  std::vector<nn::DenseLayer> hidden;
  hidden.reserve(net.layer_count());
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    const auto& src = net.layer(l);
    nn::DenseLayer dst(src.out_size(), src.in_size());
    for (std::size_t j = 0; j < src.out_size(); ++j) {
      for (std::size_t i = 0; i < src.in_size(); ++i) {
        dst.weights()(j, i) = q.quantize(src.weights()(j, i));
      }
      dst.bias()[j] = q.quantize(src.bias()[j]);
    }
    dst.set_receptive_field(src.receptive_field());
    hidden.push_back(std::move(dst));
  }
  std::vector<double> output_weights;
  output_weights.reserve(net.output_weights().size());
  for (double w : net.output_weights()) {
    output_weights.push_back(q.quantize(w));
  }
  return nn::FeedForwardNetwork(net.input_dim(), std::move(hidden),
                                std::move(output_weights),
                                q.quantize(net.output_bias()),
                                net.activation());
}

}  // namespace wnf::quant

#include "fault/layer_step.hpp"

#include "tensor/ops.hpp"
#include "util/contract.hpp"

namespace wnf::fault {
namespace {

/// s = W in + bias on every lane. A sparse layer whose topology carries
/// per-edge capacities, under a channel that honours them, clamps what each
/// edge delivers; otherwise the forward kernels run (gemv / gemv_csr, or
/// their lane twins). With non-binding capacities both routes accumulate
/// term for term alike, so they agree bit for bit.
template <std::size_t Lanes>
void affine(const nn::DenseLayer& layer, const Channel& channel,
            std::span<const double> in, std::span<double> s) {
  const nn::LayerTopology* topo = layer.topology();
  const auto bias = layer.bias();
  if (topo != nullptr && channel.edge_capacities &&
      topo->has_edge_capacities()) {
    const auto row_ptr = topo->row_ptr();
    const auto cols = topo->cols();
    const auto caps = topo->edge_capacities();
    for (std::size_t j = 0; j < layer.out_size(); ++j) {
      const auto row = layer.weights().row(j);
      for (std::size_t b = 0; b < Lanes; ++b) {
        double sum = 0.0;
        for (std::size_t e = row_ptr[j]; e < row_ptr[j + 1]; ++e) {
          sum += row[cols[e]] *
                 clamp_to_capacity(in[cols[e] * Lanes + b], caps[e]);
        }
        s[j * Lanes + b] = sum;
      }
    }
  } else if constexpr (Lanes == 1) {
    layer.affine(in, s);
    return;
  } else if (topo != nullptr) {
    gemv_csr_lanes(layer.weights(), topo->row_ptr(), topo->cols(), in, s);
  } else {
    gemv_lanes(layer.weights(), in, s);
  }
  for (std::size_t j = 0; j < layer.out_size(); ++j) {
    for (std::size_t b = 0; b < Lanes; ++b) s[j * Lanes + b] += bias[j];
  }
}

}  // namespace

template <std::size_t Lanes>
void layer_step(const nn::FeedForwardNetwork& net, std::size_t l,
                const FaultPlan& plan, const Channel& channel,
                std::span<const double> in, std::span<double> out,
                std::span<const double> nominal) {
  static_assert(Lanes == 1 || Lanes == kLanes);
  const auto& layer = net.layer(l);
  WNF_EXPECTS(in.size() == layer.in_size() * Lanes);
  WNF_EXPECTS(out.size() == layer.out_size() * Lanes);
  WNF_EXPECTS(nominal.empty() || nominal.size() == out.size());
  affine<Lanes>(layer, channel, in, out);

  // Synapse faults, in plan order: a crashed edge takes back what it
  // delivered (through its edge cap, where the channel has one); a
  // Byzantine edge sends w * (y + value) instead of w * y.
  const nn::LayerTopology* topo = layer.topology();
  const bool edge_caps = channel.edge_capacities && topo != nullptr &&
                         topo->has_edge_capacities();
  for (const auto& fault : plan.synapses) {
    if (fault.layer != l) continue;
    const double weight = layer.weights()(fault.to, fault.from);
    double* s = &out[fault.to * Lanes];
    if (fault.kind == SynapseFaultKind::kByzantine) {
      for (std::size_t b = 0; b < Lanes; ++b) s[b] += weight * fault.value;
      continue;
    }
    const double cap =
        edge_caps ? topo->edge_capacity(topo->edge_offset(fault.to, fault.from))
                  : 0.0;
    const double* delivered = &in[fault.from * Lanes];
    for (std::size_t b = 0; b < Lanes; ++b) {
      s[b] -= weight * clamp_to_capacity(delivered[b], cap);
    }
  }

  net.activation().apply(out);

  for (const auto& fault : plan.neurons) {
    if (fault.layer != l) continue;
    double* y = &out[fault.neuron * Lanes];
    for (std::size_t b = 0; b < Lanes; ++b) {
      switch (fault.kind) {
        case NeuronFaultKind::kCrash:
          y[b] = 0.0;  // Definition 2: peers read 0
          break;
        case NeuronFaultKind::kByzantine:
          if (plan.convention ==
              theory::CapacityConvention::kPerturbationBound) {
            y[b] = (nominal.empty() ? y[b]
                                    : nominal[fault.neuron * Lanes + b]) +
                   fault.value;
          } else {
            y[b] = fault.value;
          }
          break;
        case NeuronFaultKind::kStuckAt:
          y[b] = fault.value;  // frozen output
          break;
      }
    }
  }

  if (channel.capacity > 0.0) {
    for (double& v : out) v = clamp_to_capacity(v, channel.capacity);
  }
}

template <std::size_t Lanes>
void output_step(const nn::FeedForwardNetwork& net, const FaultPlan& plan,
                 std::span<const double> in, std::span<double> out) {
  const auto& w = net.output_weights();
  WNF_EXPECTS(in.size() == w.size() * Lanes);
  WNF_EXPECTS(out.size() == Lanes);
  // dot(in_b, w) + bias, summed left to right exactly as `dot` does.
  for (std::size_t b = 0; b < Lanes; ++b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) sum += in[i * Lanes + b] * w[i];
    out[b] = sum + net.output_bias();
  }
  const std::size_t top = net.layer_count() + 1;
  for (const auto& fault : plan.synapses) {
    if (fault.layer != top) continue;
    const double weight = w[fault.from];
    for (std::size_t b = 0; b < Lanes; ++b) {
      if (fault.kind == SynapseFaultKind::kCrash) {
        out[b] -= weight * in[fault.from * Lanes + b];
      } else {
        out[b] += weight * fault.value;
      }
    }
  }
}

template void layer_step<1>(const nn::FeedForwardNetwork&, std::size_t,
                            const FaultPlan&, const Channel&,
                            std::span<const double>, std::span<double>,
                            std::span<const double>);
template void layer_step<kLanes>(const nn::FeedForwardNetwork&, std::size_t,
                                 const FaultPlan&, const Channel&,
                                 std::span<const double>, std::span<double>,
                                 std::span<const double>);
template void output_step<1>(const nn::FeedForwardNetwork&, const FaultPlan&,
                             std::span<const double>, std::span<double>);
template void output_step<kLanes>(const nn::FeedForwardNetwork&,
                                  const FaultPlan&, std::span<const double>,
                                  std::span<double>);

}  // namespace wnf::fault

#include "fault/plan.hpp"

#include <cmath>
#include <set>
#include <tuple>

#include "util/contract.hpp"

namespace wnf::fault {

std::vector<std::size_t> FaultPlan::neuron_counts(std::size_t depth) const {
  std::vector<std::size_t> counts(depth, 0);
  for (const auto& fault : neurons) {
    WNF_EXPECTS(fault.layer >= 1 && fault.layer <= depth);
    ++counts[fault.layer - 1];
  }
  return counts;
}

std::vector<std::size_t> FaultPlan::synapse_counts(std::size_t depth) const {
  std::vector<std::size_t> counts(depth + 1, 0);
  for (const auto& fault : synapses) {
    WNF_EXPECTS(fault.layer >= 1 && fault.layer <= depth + 1);
    ++counts[fault.layer - 1];
  }
  return counts;
}

bool FaultPlan::has_byzantine_neurons() const {
  for (const auto& fault : neurons) {
    if (fault.kind == NeuronFaultKind::kByzantine) return true;
  }
  return false;
}

void validate_plan(const FaultPlan& plan, const nn::FeedForwardNetwork& net) {
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const auto& fault : plan.neurons) {
    WNF_EXPECTS(fault.layer >= 1 && fault.layer <= net.layer_count());
    WNF_EXPECTS(fault.neuron < net.layer_width(fault.layer));
    WNF_EXPECTS(seen.emplace(fault.layer, fault.neuron).second &&
                "duplicate neuron fault");
    if (fault.kind == NeuronFaultKind::kStuckAt) {
      WNF_EXPECTS(fault.value >= 0.0 && fault.value <= 1.0);
    }
    // Assumption 1 bounds every transmitted value; the channel clamps a
    // finite one, but a NaN passes any clamp and inf has no perturbation.
    if (fault.kind == NeuronFaultKind::kByzantine) {
      WNF_EXPECTS(std::isfinite(fault.value) && "non-finite Byzantine value");
    }
  }
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> seen_edges;
  for (const auto& fault : plan.synapses) {
    WNF_EXPECTS(fault.layer >= 1 && fault.layer <= net.layer_count() + 1);
    if (fault.layer <= net.layer_count()) {
      const auto& layer = net.layer(fault.layer);
      WNF_EXPECTS(fault.to < net.layer_width(fault.layer));
      WNF_EXPECTS(fault.from < layer.in_size());
      // A sparse layer has no synapse where it has no edge.
      if (const nn::LayerTopology* topo = layer.topology()) {
        WNF_EXPECTS(topo->has_edge(fault.to, fault.from) &&
                    "synapse fault on absent edge");
      }
    } else {
      WNF_EXPECTS(fault.to == 0);
      WNF_EXPECTS(fault.from < net.output_weights().size());
    }
    if (fault.kind == SynapseFaultKind::kByzantine) {
      WNF_EXPECTS(std::isfinite(fault.value) && "non-finite Byzantine value");
    }
    // A synapse is correct, crashed, OR Byzantine — never two at once.
    WNF_EXPECTS(seen_edges.emplace(fault.layer, fault.to, fault.from).second &&
                "duplicate synapse fault");
  }
}

}  // namespace wnf::fault

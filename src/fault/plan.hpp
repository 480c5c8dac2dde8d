// A fault plan is the concrete failure configuration of one experiment:
// which neurons/synapses fail, how, and under which capacity convention.
#pragma once

#include <vector>

#include "core/fep.hpp"
#include "fault/model.hpp"
#include "nn/network.hpp"

namespace wnf::fault {

struct FaultPlan {
  std::vector<NeuronFault> neurons;
  std::vector<SynapseFault> synapses;
  theory::CapacityConvention convention =
      theory::CapacityConvention::kPerturbationBound;

  bool empty() const { return neurons.empty() && synapses.empty(); }

  /// Per-layer neuron fault counts f_1..f_L (the paper's Nfail tuple).
  std::vector<std::size_t> neuron_counts(std::size_t depth) const;

  /// Per-layer synapse fault counts, size L+1.
  std::vector<std::size_t> synapse_counts(std::size_t depth) const;

  /// True when any Byzantine *neuron* fault is present (these need the
  /// nominal trace under the perturbation convention).
  bool has_byzantine_neurons() const;
};

/// Validates a plan against a network's shape: layer/neuron indices in
/// range, no duplicate neuron targets, f_l <= N_l, finite Byzantine values,
/// stuck-at values in [0, 1]. Aborts on violation
/// (plans are experiment fixtures; a malformed one is a bug, not input).
void validate_plan(const FaultPlan& plan, const nn::FeedForwardNetwork& net);

}  // namespace wnf::fault

// The one forward step that applies perturbations. Every path runs it: the
// Injector layer after layer with no channel, the message simulator with
// the capacity channel and its latencies and straggler cuts around it, and
// the quantiser (quant/quantized_network.hpp) with an empty plan, snapping
// each layer's outputs to its grid.
// Each step is a template over the lane count: Lanes == 1 is the per-probe
// path, Lanes == kLanes evaluates an across-probe block (tensor/ops.hpp)
// whose every lane is bit-identical to the 1-lane instance on that probe.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "fault/plan.hpp"
#include "nn/network.hpp"

namespace wnf::fault {

/// Assumption 1's channel as a layer step applies it. The default is no
/// channel (the Injector: values pass unclamped). The simulator clamps
/// every transmitted value to [-capacity, capacity] (capacity <= 0 means
/// unbounded, Lemma 1's regime) and, with `edge_capacities`, also what each
/// edge of a sparse layer delivers when the topology carries per-edge caps.
struct Channel {
  double capacity = 0.0;
  bool edge_capacities = false;
};

/// |transmitted| <= capacity; capacity <= 0 passes the value through.
inline double clamp_to_capacity(double value, double capacity) {
  if (capacity <= 0.0) return value;
  return std::clamp(value, -capacity, capacity);
}

/// Hidden layer l (1..L) for Lanes probes: affine, synapse faults,
/// activation, neuron faults, channel. `in` holds the values layer l's
/// receivers read (in_size x Lanes, lane-major); `out` receives y^(l)
/// (width x Lanes). `nominal`, when non-empty, is y^(l) of the fault-free
/// pass (width x Lanes): a Byzantine neuron under the perturbation
/// convention then perturbs it, as the Injector does by running the
/// fault-free step in lockstep. When empty it perturbs the value it
/// computed itself, as a simulated process must (messages carry no clean
/// trace).
template <std::size_t Lanes>
void layer_step(const nn::FeedForwardNetwork& net, std::size_t l,
                const FaultPlan& plan, const Channel& channel,
                std::span<const double> in, std::span<double> out,
                std::span<const double> nominal = {});

/// The output client for Lanes probes: out[b] = w^(L+1) . in_b + bias with
/// the output synapse set's (layer L+1) faults applied.
template <std::size_t Lanes>
void output_step(const nn::FeedForwardNetwork& net, const FaultPlan& plan,
                 std::span<const double> in, std::span<double> out);

}  // namespace wnf::fault

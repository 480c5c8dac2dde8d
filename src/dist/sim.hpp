// Message-level simulator of the paper's distributed execution model
// (Section II-A): one process per neuron, synapses as channels. Each
// evaluation replays the network as rounds of messages — every neuron
// waits for its fan-in (or, boosted per Corollary 2, for a prefix of the
// earliest senders), computes, and broadcasts through capacity-C channels
// (Assumption 1, enforced structurally on every transmitted value; a
// non-positive capacity models the unbounded channels of Lemma 1's
// impossibility regime).
//
// Faults follow fault::Injector semantics value-for-value -- both paths run
// the same fault layer step (fault/layer_step.hpp) -- so the analytic path
// (matrix forward) and the systems path (messages + clocks) can be
// cross-checked bit-for-bit:
//   - crashed neuron: peers read 0, available immediately
//   - Byzantine neuron: fires at t = 0 with its planned value (clamped)
//   - stuck-at neuron: normal schedule, frozen value
//   - crashed synapse: that edge delivers nothing
//   - Byzantine synapse: the edge transmits w * (y + value)
// The one intentional divergence: under the perturbation capacity
// convention a Byzantine neuron here perturbs its *locally computed*
// value (which may already reflect upstream damage), not the offline
// nominal trace the Injector uses — messages have no access to a clean
// trace. Tests pin equivalence on the transmitted-value convention.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dist/latency.hpp"
#include "fault/layer_step.hpp"
#include "fault/plan.hpp"
#include "nn/network.hpp"

namespace wnf::dist {

struct SimConfig {
  /// Assumption 1's synaptic transmission capacity C: every value a neuron
  /// sends is clamped to [-C, C]. capacity <= 0 disables the clamp
  /// (Lemma 1's unbounded-transmission regime).
  double capacity = 1.0;
};

/// What a receiver substitutes for a sender it refused to wait for.
enum class ResetPolicy {
  kZero,      ///< reset to 0 — the paper's Corollary 2 semantics (a cut
              ///< sender is indistinguishable from a crashed one, so the
              ///< crash Fep bound applies)
  kHoldLast,  ///< reuse the sender's value from the previous evaluation
              ///< (empirical ablation; no worst-case guarantee, so
              ///< run_boosting never certifies it). Falls back to 0
              ///< before any history exists, and always for cut input
              ///< clients — inputs are not processes and keep no history.
};

/// Outcome of one simulated evaluation.
struct SimResult {
  double output = 0.0;           ///< Fneu(X) as the output client reads it
  double completion_time = 0.0;  ///< when the output client has heard every
                                 ///< layer-L sender it waits for (the full
                                 ///< layer unless an output cut is active)
  std::size_t resets_sent = 0;   ///< receiver->sender reset messages
                                 ///< (Section V-B accounting); 0 unboosted
};

/// Deterministic event-level executor for one network. Holds per-neuron
/// latencies, an active fault plan, the last transmitted values (the
/// kHoldLast history), and preallocated workspaces so steady-state
/// evaluation, straggler cuts included, makes no heap allocation
/// (tests/test_alloc.cpp). Not thread-safe; one
/// simulator per worker (serve::ReplicaPool replicates at this boundary).
class NetworkSimulator {
 public:
  /// Binds to `net` (kept by reference; must outlive the simulator).
  NetworkSimulator(const nn::FeedForwardNetwork& net, SimConfig config);

  /// Full evaluation: every neuron waits for its complete fan-in.
  SimResult evaluate(std::span<const double> x);

  /// Corollary-2 evaluation: a neuron of layer l fires after hearing the
  /// `wait_counts[l-1]` earliest senders of layer l-1 (entry 0 counts the
  /// input clients), resetting the stragglers per `policy`. With L entries
  /// the output client waits for all of layer L (the full-wait default);
  /// an optional (L+1)-th entry extends the cut to the output synapse set —
  /// the output client hears only that many earliest layer-L senders and
  /// resets the rest per `policy`. Counts larger than the fan-in are
  /// clamped to it.
  SimResult evaluate_boosted(std::span<const double> x,
                             std::span<const std::size_t> wait_counts,
                             ResetPolicy policy = ResetPolicy::kZero);

  /// Per-neuron latencies, shape layer_widths(). Defaults to all-zero
  /// (instantaneous network, completion_time 0).
  void set_latencies(std::vector<std::vector<double>> latencies);

  /// Redraws every per-neuron latency from `model` in place — the
  /// allocation-free equivalent of set_latencies(model.sample_layers(..))
  /// for serving hot paths. Draw order matches sample_layers exactly.
  void sample_latencies(const LatencyModel& model, Rng& rng);

  /// Draws lane `lane`'s per-neuron latencies (lane < kLanes) for the next
  /// evaluate_lanes() from `model` -- the same draws, in the same order, as
  /// sample_latencies(). A lane keeps its draw until redrawn; a lane never
  /// drawn runs at zero latency.
  void sample_lane_latencies(std::size_t lane, const LatencyModel& model,
                             Rng& rng);

  /// Across-probe block (tensor/ops.hpp): lane b evaluates probes[b] under
  /// lane b's latencies, 1 <= probes.size() <= kLanes, with the Corollary-2
  /// cut of `wait_counts` (as for evaluate_boosted; empty = full waits) and
  /// kZero resets. results[b] equals, bit for bit, evaluate_boosted(
  /// probes[b], wait_counts, kZero) run after setting lane b's latencies,
  /// for b in order; the kHoldLast history afterwards is the last probe's,
  /// as after those serial calls.
  void evaluate_lanes(std::span<const std::vector<double>> probes,
                      std::span<const std::size_t> wait_counts,
                      std::span<SimResult> results);

  /// Installs `plan` (validated against the network) until clear_faults().
  void apply_faults(fault::FaultPlan plan);
  void clear_faults();

  /// Forgets the kHoldLast history (next hold-last cut reads 0).
  void reset_history();

  const nn::FeedForwardNetwork& network() const { return net_; }
  const SimConfig& config() const { return config_; }

 private:
  /// One evaluation of Lanes probes: `x` is input_dim x Lanes, lane-major;
  /// results[b] receives lane b's outcome and the history row is taken from
  /// lane `history_lane`. Lanes > 1 requires kZero resets.
  template <std::size_t Lanes>
  void run(std::span<const double> x, std::size_t history_lane,
           std::span<const std::size_t> wait_counts, ResetPolicy policy,
           std::span<SimResult> results);

  /// Sizes lane_latencies_ for a block (new entries read zero latency).
  void shape_lane_latencies();

  /// Shared wait set for every receiver hearing sent_/arrival_, per lane:
  /// keeps the `wait_count` earliest senders, overwrites the stragglers in
  /// sent_ per `policy` (hold-last reads `history_row` when non-null), and
  /// charges `receivers` reset messages per straggler. Writes each lane's
  /// barrier time (arrival of the last sender waited for); sent_ then holds
  /// the values the receivers actually read. Allocates nothing.
  template <std::size_t Lanes>
  void cut_stragglers(std::size_t wait_count, std::size_t receivers,
                      const std::vector<double>* history_row,
                      ResetPolicy policy, std::span<SimResult> results,
                      double* barriers);

  const nn::FeedForwardNetwork& net_;
  SimConfig config_;
  fault::Channel channel_;                      ///< Assumption 1, per edge too
  std::vector<std::size_t> widths_;             ///< cached layer_widths()
  std::vector<std::size_t> full_wait_;          ///< evaluate()'s wait counts
  std::vector<std::vector<double>> latencies_;  ///< per layer, per neuron
  std::vector<std::vector<double>> lane_latencies_;  ///< per layer, lane-major
  fault::FaultPlan plan_;
  std::vector<std::vector<double>> history_;  ///< last transmitted values
  bool has_history_ = false;

  // Reused evaluation workspaces, lane-major (one lane on the per-probe
  // path); sized once per lane count, no per-layer allocation.
  std::vector<std::vector<double>> history_next_;
  std::vector<double> sent_;      ///< values the previous round transmitted
  std::vector<double> arrival_;   ///< when each of those values arrived
  std::vector<double> value_;     ///< y^(l) under construction
  std::vector<double> fire_;      ///< fire times under construction
  std::vector<std::size_t> order_;  ///< senders, the wait set first
  std::vector<double> lane_input_;        ///< evaluate_lanes' input block
  std::vector<SimResult> lane_results_;   ///< evaluate_lanes' kLanes results
};

}  // namespace wnf::dist

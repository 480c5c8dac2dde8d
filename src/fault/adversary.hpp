// Adversaries: strategies for *choosing* which components fail and what a
// Byzantine component sends. The paper's tightness proofs kill "key
// neurons" (highest weights) on instrumental inputs; the strategies below
// range from benign (uniform random) to that worst case (gradient-directed
// Byzantine values at top-weight neurons), plus an exhaustive search that
// exhibits the combinatorial explosion the analytic bound avoids.
#pragma once

#include <vector>

#include "fault/plan.hpp"
#include "util/rng.hpp"

namespace wnf::exec {
class EvalBackend;  // the execution seam search strategies score against
}  // namespace wnf::exec

namespace wnf::fault {

/// Uniformly random distinct crash victims per layer. `counts[l-1]` = f_l.
FaultPlan random_crash_plan(const nn::FeedForwardNetwork& net,
                            std::span<const std::size_t> counts, Rng& rng);

/// The paper's "key neurons": per layer, crash the f_l neurons with the
/// largest outgoing-weight magnitude (max |w^(l+1)_{j,i}| over receivers j;
/// output weight |w^(L+1)_i| for the top layer).
FaultPlan top_weight_crash_plan(const nn::FeedForwardNetwork& net,
                                std::span<const std::size_t> counts);

/// Random Byzantine victims with perturbations lambda = +/- capacity
/// (random signs). Perturbation capacity convention.
FaultPlan random_byzantine_plan(const nn::FeedForwardNetwork& net,
                                std::span<const std::size_t> counts,
                                double capacity, Rng& rng);

/// Gradient-directed Byzantine attack at input `x`: victims are the
/// top-|d(out)/dy| neurons per layer and each sends
/// lambda = capacity * sign(d(out)/dy), pushing the output as far as the
/// first-order model allows. This is the strongest implemented adversary
/// and the one that approaches the Fep bound in the tightness experiments.
FaultPlan gradient_directed_byzantine_plan(const nn::FeedForwardNetwork& net,
                                           std::span<const std::size_t> counts,
                                           double capacity,
                                           std::span<const double> x);

/// Gradient-directed stuck-at attack at input `x`: victims are the
/// top-|d(out)/dy| neurons per layer, each frozen at the extreme (0 or 1)
/// that pushes the output furthest. The strongest attack available to a
/// failure mode whose transmitted values stay inside the activation range —
/// covered by the crash-mode (C = 1) Fep.
FaultPlan stuck_at_extreme_plan(const nn::FeedForwardNetwork& net,
                                std::span<const std::size_t> counts,
                                std::span<const double> x);

/// Random Byzantine synapse victims into each layer (counts has size L+1),
/// corrupting incoming values by +/- capacity.
FaultPlan random_synapse_byzantine_plan(const nn::FeedForwardNetwork& net,
                                        std::span<const std::size_t> counts,
                                        double capacity, Rng& rng);

/// Exhaustive worst-case crash search (single layer l): tries all
/// C(N_l, f) victim subsets over the given probe inputs; returns the plan
/// achieving the largest output error and writes that error to
/// `worst_error`. Aborts if C(N_l, f) exceeds `combination_limit` — the
/// "discouraging combinatorial explosion" of the paper's introduction.
/// Candidate subsets are scored on `backend` (which must be bound to
/// `net`), so the search runs against any execution path, not just the
/// Injector's matrix forward pass.
FaultPlan exhaustive_worst_crash_plan(
    const nn::FeedForwardNetwork& net, std::size_t layer, std::size_t f,
    std::span<const std::vector<double>> probe_inputs, double& worst_error,
    exec::EvalBackend& backend, std::size_t combination_limit = 2'000'000);

/// Convenience overload scoring on the analytic path (an InjectorBackend).
FaultPlan exhaustive_worst_crash_plan(
    const nn::FeedForwardNetwork& net, std::size_t layer, std::size_t f,
    std::span<const std::vector<double>> probe_inputs, double& worst_error,
    std::size_t combination_limit = 2'000'000);

/// Greedy worst-case crash search: kills, one at a time, the neuron whose
/// crash currently increases the worst-case error most (over the probes,
/// scored on `backend`; ties go to the lowest index). Cost
/// O(total_faults * N * probes) forwards instead of combinatorial. Both
/// searches compute the probes' fault-free outputs once; the exhaustive one
/// scores each subset with EvalBackend::worst_output_error, the greedy one
/// each step's candidates with one EvalBackend::crash_errors call.
FaultPlan greedy_worst_crash_plan(const nn::FeedForwardNetwork& net,
                                  std::span<const std::size_t> counts,
                                  std::span<const std::vector<double>> probes,
                                  exec::EvalBackend& backend);

/// Convenience overload scoring on the analytic path (an InjectorBackend).
FaultPlan greedy_worst_crash_plan(const nn::FeedForwardNetwork& net,
                                  std::span<const std::size_t> counts,
                                  std::span<const std::vector<double>> probes);

/// Number of distinct fault configurations of f crashes among n neurons —
/// C(n, f) saturating at SIZE_MAX (the explosion the bound sidesteps).
std::size_t combination_count(std::size_t n, std::size_t f);

}  // namespace wnf::fault

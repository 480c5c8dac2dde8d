#include "dist/sim.hpp"

#include <algorithm>
#include <numeric>

#include "tensor/ops.hpp"
#include "util/contract.hpp"

namespace wnf::dist {

NetworkSimulator::NetworkSimulator(const nn::FeedForwardNetwork& net,
                                   SimConfig config)
    : net_(net),
      config_(config),
      channel_{config.capacity, true},
      widths_(net.layer_widths()) {
  const std::size_t depth = net_.layer_count();
  latencies_.resize(depth);
  // Both history buffers carry one row per layer from the start so the
  // end-of-run swap always exchanges fully shaped workspaces.
  history_.resize(depth);
  history_next_.resize(depth);
  full_wait_.resize(depth);
  std::size_t max_width = net_.input_dim();
  for (std::size_t l = 1; l <= depth; ++l) {
    latencies_[l - 1].assign(widths_[l - 1], 0.0);
    full_wait_[l - 1] = l == 1 ? net_.input_dim() : widths_[l - 2];
    max_width = std::max(max_width, widths_[l - 1]);
  }
  sent_.reserve(max_width);
  arrival_.reserve(max_width);
  value_.reserve(max_width);
  fire_.reserve(max_width);
  order_.reserve(max_width);
}

SimResult NetworkSimulator::evaluate(std::span<const double> x) {
  SimResult result;
  run<1>(x, 0, full_wait_, ResetPolicy::kZero, {&result, 1});
  return result;
}

SimResult NetworkSimulator::evaluate_boosted(
    std::span<const double> x, std::span<const std::size_t> wait_counts,
    ResetPolicy policy) {
  SimResult result;
  run<1>(x, 0, wait_counts, policy, {&result, 1});
  return result;
}

void NetworkSimulator::shape_lane_latencies() {
  // Allocated on first lane use only: per-probe simulators (the serving
  // replicas) never pay for a block's workspace.
  lane_latencies_.resize(widths_.size());
  for (std::size_t l = 0; l < widths_.size(); ++l) {
    lane_latencies_[l].resize(widths_[l] * kLanes, 0.0);
  }
}

void NetworkSimulator::sample_lane_latencies(std::size_t lane,
                                             const LatencyModel& model,
                                             Rng& rng) {
  WNF_EXPECTS(lane < kLanes);
  model.sample_layers_into(widths_, rng, latencies_);
  shape_lane_latencies();
  for (std::size_t l = 0; l < widths_.size(); ++l) {
    for (std::size_t j = 0; j < widths_[l]; ++j) {
      lane_latencies_[l][j * kLanes + lane] = latencies_[l][j];
    }
  }
}

void NetworkSimulator::evaluate_lanes(
    std::span<const std::vector<double>> probes,
    std::span<const std::size_t> wait_counts, std::span<SimResult> results) {
  WNF_EXPECTS(!probes.empty() && probes.size() <= kLanes);
  WNF_EXPECTS(results.size() == probes.size());
  lane_input_.resize(net_.input_dim() * kLanes);
  gather_lanes(probes, net_.input_dim(), lane_input_);
  shape_lane_latencies();
  lane_results_.resize(kLanes);
  run<kLanes>(lane_input_, probes.size() - 1,
              wait_counts.empty() ? std::span<const std::size_t>(full_wait_)
                                  : wait_counts,
              ResetPolicy::kZero, lane_results_);
  for (std::size_t b = 0; b < probes.size(); ++b) {
    results[b] = std::move(lane_results_[b]);
  }
}

void NetworkSimulator::set_latencies(
    std::vector<std::vector<double>> latencies) {
  WNF_EXPECTS(latencies.size() == net_.layer_count());
  for (std::size_t l = 1; l <= net_.layer_count(); ++l) {
    WNF_EXPECTS(latencies[l - 1].size() == net_.layer_width(l));
    for (const double latency : latencies[l - 1]) {
      WNF_EXPECTS(latency >= 0.0);
    }
  }
  latencies_ = std::move(latencies);
}

void NetworkSimulator::sample_latencies(const LatencyModel& model, Rng& rng) {
  model.sample_layers_into(widths_, rng, latencies_);
}

void NetworkSimulator::apply_faults(fault::FaultPlan plan) {
  fault::validate_plan(plan, net_);
  plan_ = std::move(plan);
}

void NetworkSimulator::clear_faults() { plan_ = fault::FaultPlan{}; }

void NetworkSimulator::reset_history() {
  // The rows stay allocated (they are workspace); the flag alone gates
  // every hold-last read, so stale values are never observed.
  has_history_ = false;
}

template <std::size_t Lanes>
void NetworkSimulator::cut_stragglers(
    std::size_t wait_count, std::size_t receivers,
    const std::vector<double>* history_row, ResetPolicy policy,
    std::span<SimResult> results, double* barriers) {
  const std::size_t fan_in = sent_.size() / Lanes;
  const std::size_t wait = std::min(wait_count, fan_in);
  std::fill(barriers, barriers + Lanes, 0.0);
  if (wait >= fan_in) {
    for (std::size_t i = 0; i < fan_in; ++i) {
      for (std::size_t b = 0; b < Lanes; ++b) {
        barriers[b] = std::max(barriers[b], arrival_[i * Lanes + b]);
      }
    }
    return;
  }
  // Every receiver hears the same senders at the same times, so they share
  // one wait set per lane: the `wait` earliest arrivals, ties broken by
  // sender index. That order is total, so selecting the set (no sort, no
  // buffer) picks exactly the senders a stable sort by arrival would, and
  // its last member's arrival is the barrier. Stragglers past the cut are
  // reset in place: layer_step reads sent_ next, and the history row was
  // taken before the cut.
  order_.resize(fan_in);
  for (std::size_t b = 0; b < Lanes; ++b) {
    const auto arrival = [&](std::size_t i) { return arrival_[i * Lanes + b]; };
    std::iota(order_.begin(), order_.end(), 0);
    if (wait > 0) {
      std::nth_element(order_.begin(), order_.begin() + (wait - 1),
                       order_.end(), [&](std::size_t a, std::size_t c) {
                         return arrival(a) < arrival(c) ||
                                (arrival(a) == arrival(c) && a < c);
                       });
      barriers[b] = std::max(barriers[b], arrival(order_[wait - 1]));
    }
    for (std::size_t k = wait; k < fan_in; ++k) {
      const std::size_t cut = order_[k];
      double substitute = 0.0;  // Corollary 2: read the straggler as 0
      if (policy == ResetPolicy::kHoldLast && has_history_ &&
          history_row != nullptr) {
        substitute = (*history_row)[cut];
      }
      sent_[cut * Lanes + b] = substitute;
    }
    // Each receiver tells each straggler to stand down.
    results[b].resets_sent += (fan_in - wait) * receivers;
  }
}

template <std::size_t Lanes>
void NetworkSimulator::run(std::span<const double> x,
                           std::size_t history_lane,
                           std::span<const std::size_t> wait_counts,
                           ResetPolicy policy, std::span<SimResult> results) {
  WNF_EXPECTS(x.size() == net_.input_dim() * Lanes);
  WNF_EXPECTS(Lanes == 1 || policy == ResetPolicy::kZero);
  const std::size_t depth = net_.layer_count();
  WNF_EXPECTS(wait_counts.size() == depth || wait_counts.size() == depth + 1);

  for (auto& result : results) result = SimResult{};
  double barriers[Lanes];

  // State entering each round: what every sender of the previous set
  // transmitted and when it arrived. Input clients all arrive at t = 0.
  sent_.assign(x.begin(), x.end());
  arrival_.assign(x.size(), 0.0);

  for (std::size_t l = 1; l <= depth; ++l) {
    const std::size_t width = widths_[l - 1];
    const std::vector<double>* hist =
        has_history_ && l >= 2 ? &history_[l - 2] : nullptr;
    cut_stragglers<Lanes>(wait_counts[l - 1], width, hist, policy, results,
                          barriers);

    // The shared fault step: affine (messages travel only along existing
    // edges; per-edge capacities clamp what each edge delivers), synapse
    // faults, activation, neuron faults, the capacity-C channel.
    value_.resize(width * Lanes);
    fault::layer_step<Lanes>(net_, l, plan_, channel_, sent_, value_);

    // Fire on the local clock. A crashed process is silent and delays
    // nobody; a Byzantine one does not compute and fires at t = 0; a
    // stuck-at neuron keeps the normal schedule.
    const std::vector<double>& latency =
        Lanes == 1 ? latencies_[l - 1] : lane_latencies_[l - 1];
    fire_.resize(width * Lanes);
    for (std::size_t j = 0; j < width; ++j) {
      for (std::size_t b = 0; b < Lanes; ++b) {
        fire_[j * Lanes + b] = barriers[b] + latency[j * Lanes + b];
      }
    }
    for (const auto& fault : plan_.neurons) {
      if (fault.layer != l || fault.kind == fault::NeuronFaultKind::kStuckAt) {
        continue;
      }
      std::fill_n(fire_.begin() + fault.neuron * Lanes, Lanes, 0.0);
    }

    auto& history = history_next_[l - 1];
    history.resize(width);
    for (std::size_t j = 0; j < width; ++j) {
      history[j] = value_[j * Lanes + history_lane];
    }
    std::swap(sent_, value_);
    std::swap(arrival_, fire_);
  }

  // The output node is a client: it waits for all of layer L — or, when a
  // top-layer cut is active (an (L+1)-th wait count), only for the earliest
  // senders, resetting the rest per `policy` — and sums the (L+1)-th
  // synapse set, which is part of the network and can fail.
  const std::size_t out_wait = wait_counts.size() == depth + 1
                                   ? wait_counts[depth]
                                   : sent_.size() / Lanes;
  const std::vector<double>* out_hist =
      has_history_ && depth >= 1 ? &history_[depth - 1] : nullptr;
  cut_stragglers<Lanes>(out_wait, 1, out_hist, policy, results, barriers);
  double outputs[Lanes];
  fault::output_step<Lanes>(net_, plan_, sent_, outputs);
  for (std::size_t b = 0; b < Lanes; ++b) {
    results[b].output = outputs[b];
    results[b].completion_time = barriers[b];
  }

  std::swap(history_, history_next_);
  has_history_ = true;
}

}  // namespace wnf::dist

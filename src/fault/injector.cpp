#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>

#include "fault/layer_step.hpp"
#include "tensor/ops.hpp"
#include "util/contract.hpp"

namespace wnf::fault {
namespace {

const FaultPlan kNoFaults{};

}  // namespace

Injector::Injector(const nn::FeedForwardNetwork& net) : net_(net) {}

template <std::size_t Lanes>
void Injector::start(const FaultPlan& plan, std::span<const double> x) {
  WNF_EXPECTS(x.size() == net_.input_dim() * Lanes);
  // A Byzantine neuron under the perturbation convention perturbs its
  // fault-free y^(l), so the fault-free step runs alongside, layer by layer.
  lockstep_ = plan.has_byzantine_neurons() &&
              plan.convention == theory::CapacityConvention::kPerturbationBound;
  current_.assign(x.begin(), x.end());
  if (lockstep_) clean_current_.assign(x.begin(), x.end());
}

template <std::size_t Lanes>
void Injector::advance(const FaultPlan& plan, std::size_t first,
                       std::size_t last) {
  for (std::size_t l = first; l <= last; ++l) {
    next_.resize(net_.layer_width(l) * Lanes);
    std::span<const double> nominal;
    if (lockstep_) {
      clean_next_.resize(next_.size());
      layer_step<Lanes>(net_, l, kNoFaults, Channel{}, clean_current_,
                        clean_next_);
      nominal = clean_next_;
    }
    layer_step<Lanes>(net_, l, plan, Channel{}, current_, next_, nominal);
    std::swap(current_, next_);
    std::swap(clean_current_, clean_next_);
  }
}

template <std::size_t Lanes>
void Injector::forward(const FaultPlan& plan, std::span<const double> x,
                       std::span<double> out) {
  start<Lanes>(plan, x);
  advance<Lanes>(plan, 1, net_.layer_count());
  output_step<Lanes>(net_, plan, current_, out);
}

template <std::size_t Lanes>
void Injector::crash_block(const FaultPlan& base, std::size_t layer,
                           std::span<const std::size_t> candidates,
                           std::span<const double> x,
                           std::span<const double> nominal,
                           std::span<double> errors) {
  start<Lanes>(base, x);
  advance<Lanes>(base, 1, layer);
  prefix_ = current_;
  if (lockstep_) clean_prefix_ = clean_current_;
  double out[Lanes];
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    current_ = prefix_;
    if (lockstep_) clean_current_ = clean_prefix_;
    // A crash appended last to the plan zeroes the row after every other
    // fault of the step, and the Injector has no channel to clamp after it.
    std::fill_n(current_.begin() + candidates[k] * Lanes, Lanes, 0.0);
    advance<Lanes>(base, layer + 1, net_.layer_count());
    output_step<Lanes>(net_, base, current_, out);
    for (std::size_t b = 0; b < nominal.size(); ++b) {
      errors[k] = std::max(errors[k], std::fabs(nominal[b] - out[b]));
    }
  }
}

double Injector::nominal(std::span<const double> x) {
  double out = 0.0;
  forward<1>(kNoFaults, x, {&out, 1});
  return out;
}

double Injector::damaged(const FaultPlan& plan, std::span<const double> x) {
  double out = 0.0;
  forward<1>(plan, x, {&out, 1});
  return out;
}

void Injector::forward_blocks(const FaultPlan& plan,
                              std::span<const std::vector<double>> probes,
                              std::span<double> out) {
  WNF_EXPECTS(out.size() == probes.size());
  double lanes_out[kLanes];
  for_each_lane_block(
      probes.size(),
      [&](std::size_t begin, std::size_t count) {
        block_.resize(net_.input_dim() * kLanes);
        gather_lanes(probes.subspan(begin, count), net_.input_dim(), block_);
        forward<kLanes>(plan, block_, lanes_out);
        std::copy(lanes_out, lanes_out + count, out.begin() + begin);
      },
      [&](std::size_t i) { forward<1>(plan, probes[i], out.subspan(i, 1)); });
}

void Injector::crash_errors(const FaultPlan& base, std::size_t layer,
                            std::span<const std::size_t> candidates,
                            std::span<const std::vector<double>> probes,
                            std::span<const double> nominal,
                            std::span<double> errors) {
  WNF_EXPECTS(layer >= 1 && layer <= net_.layer_count());
  WNF_EXPECTS(nominal.size() == probes.size());
  WNF_EXPECTS(errors.size() == candidates.size());
  std::fill(errors.begin(), errors.end(), 0.0);
  for_each_lane_block(
      probes.size(),
      [&](std::size_t begin, std::size_t count) {
        block_.resize(net_.input_dim() * kLanes);
        gather_lanes(probes.subspan(begin, count), net_.input_dim(), block_);
        crash_block<kLanes>(base, layer, candidates, block_,
                            nominal.subspan(begin, count), errors);
      },
      [&](std::size_t i) {
        crash_block<1>(base, layer, candidates, probes[i],
                       nominal.subspan(i, 1), errors);
      });
}

void Injector::nominal(std::span<const std::vector<double>> probes,
                       std::span<double> out) {
  forward_blocks(kNoFaults, probes, out);
}

void Injector::damaged(const FaultPlan& plan,
                       std::span<const std::vector<double>> probes,
                       std::span<double> out) {
  forward_blocks(plan, probes, out);
}

double Injector::output_error(const FaultPlan& plan,
                              std::span<const double> x) {
  return std::fabs(nominal(x) - damaged(plan, x));
}

double Injector::worst_output_error(
    const FaultPlan& plan, std::span<const std::vector<double>> inputs) {
  WNF_EXPECTS(!inputs.empty());
  std::vector<double> clean(inputs.size());
  std::vector<double> hurt(inputs.size());
  nominal(inputs, clean);
  damaged(plan, inputs, hurt);
  double worst = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    worst = std::max(worst, std::fabs(clean[i] - hurt[i]));
  }
  return worst;
}

}  // namespace wnf::fault

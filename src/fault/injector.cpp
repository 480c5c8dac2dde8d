#include "fault/injector.hpp"

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
void Injector::forward(const FaultPlan& plan, std::span<const double> x,
                       std::span<double> out) {
  WNF_EXPECTS(x.size() == net_.input_dim() * Lanes);
  // A Byzantine neuron under the perturbation convention perturbs its
  // fault-free y^(l), so the fault-free step runs alongside, layer by layer.
  const bool lockstep =
      plan.has_byzantine_neurons() &&
      plan.convention == theory::CapacityConvention::kPerturbationBound;
  current_.assign(x.begin(), x.end());
  if (lockstep) clean_current_.assign(x.begin(), x.end());
  for (std::size_t l = 1; l <= net_.layer_count(); ++l) {
    next_.resize(net_.layer_width(l) * Lanes);
    std::span<const double> nominal;
    if (lockstep) {
      clean_next_.resize(next_.size());
      layer_step<Lanes>(net_, l, kNoFaults, Channel{}, clean_current_,
                        clean_next_);
      nominal = clean_next_;
    }
    layer_step<Lanes>(net_, l, plan, Channel{}, current_, next_, nominal);
    std::swap(current_, next_);
    std::swap(clean_current_, clean_next_);
  }
  output_step<Lanes>(net_, plan, current_, out);
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

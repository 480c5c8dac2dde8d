#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace wnf::nn {

Activation::Activation(ActivationKind kind, double k) : kind_(kind), k_(k) {
  WNF_EXPECTS(k > 0.0);
}

double Activation::value(double x) const {
  switch (kind_) {
    case ActivationKind::kSigmoid:
      // Tuned sigmoid: plain sigmoid has slope 1/4 at 0, so the 4K factor
      // makes the tuned slope exactly K there (paper Fig. 2 derivation).
      return 1.0 / (1.0 + std::exp(-4.0 * k_ * x));
    case ActivationKind::kTanh01: {
      // tanh(2Kx) has slope 2K at 0; halving rescales range to [0,1] and
      // slope to K.
      return 0.5 * (1.0 + std::tanh(2.0 * k_ * x));
    }
    case ActivationKind::kHardSigmoid:
      return std::clamp(0.5 + k_ * x, 0.0, 1.0);
  }
  WNF_ASSERT(false);
  return 0.0;
}

void Activation::apply(std::span<double> values) const {
  switch (kind_) {
    case ActivationKind::kSigmoid:
      for (double& x : values) x = 1.0 / (1.0 + std::exp(-4.0 * k_ * x));
      return;
    case ActivationKind::kTanh01:
      for (double& x : values) x = 0.5 * (1.0 + std::tanh(2.0 * k_ * x));
      return;
    case ActivationKind::kHardSigmoid:
      for (double& x : values) x = std::clamp(0.5 + k_ * x, 0.0, 1.0);
      return;
  }
  WNF_ASSERT(false);
}

double Activation::derivative(double x) const {
  switch (kind_) {
    case ActivationKind::kSigmoid: {
      const double y = value(x);
      return 4.0 * k_ * y * (1.0 - y);
    }
    case ActivationKind::kTanh01: {
      const double t = std::tanh(2.0 * k_ * x);
      return k_ * (1.0 - t * t);
    }
    case ActivationKind::kHardSigmoid: {
      const double pre = 0.5 + k_ * x;
      return (pre > 0.0 && pre < 1.0) ? k_ : 0.0;
    }
  }
  WNF_ASSERT(false);
  return 0.0;
}

std::string Activation::kind_name() const {
  switch (kind_) {
    case ActivationKind::kSigmoid: return "sigmoid";
    case ActivationKind::kTanh01: return "tanh01";
    case ActivationKind::kHardSigmoid: return "hard";
  }
  WNF_ASSERT(false);
  return "?";
}

std::optional<ActivationKind> Activation::try_parse_kind(
    const std::string& name) {
  if (name == "sigmoid") return ActivationKind::kSigmoid;
  if (name == "tanh01") return ActivationKind::kTanh01;
  if (name == "hard") return ActivationKind::kHardSigmoid;
  return std::nullopt;
}

ActivationKind Activation::parse_kind(const std::string& name) {
  const auto kind = try_parse_kind(name);
  WNF_EXPECTS(kind.has_value() && "unknown activation kind");
  return *kind;
}

}  // namespace wnf::nn

// Quantisation tests: fixed-point grids, Theorem-5 lambdas, quantised
// evaluation, weight quantisation, memory accounting.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "nn/builder.hpp"
#include "quant/memory_model.hpp"
#include "quant/quantized_network.hpp"

namespace wnf::quant {
namespace {

TEST(FixedPoint, SnapsToGrid) {
  const FixedPoint q(3, Rounding::kNearest);  // grid step 1/8
  EXPECT_DOUBLE_EQ(q.quantize(0.5), 0.5);
  EXPECT_DOUBLE_EQ(q.quantize(0.51), 0.5);
  EXPECT_DOUBLE_EQ(q.quantize(0.57), 0.625);
  EXPECT_DOUBLE_EQ(q.quantize(-0.3), -0.25);
}

TEST(FixedPoint, TruncationRoundsTowardZero) {
  const FixedPoint q(2, Rounding::kTruncate);  // grid step 1/4
  EXPECT_DOUBLE_EQ(q.quantize(0.74), 0.5);
  EXPECT_DOUBLE_EQ(q.quantize(-0.74), -0.5);
}

TEST(FixedPoint, MaxErrorBySemantics) {
  EXPECT_DOUBLE_EQ(FixedPoint(4, Rounding::kNearest).max_error(), 1.0 / 32.0);
  EXPECT_DOUBLE_EQ(FixedPoint(4, Rounding::kTruncate).max_error(), 1.0 / 16.0);
}

TEST(FixedPoint, ErrorNeverExceedsMaxError) {
  for (std::size_t bits : {1u, 3u, 8u, 16u}) {
    for (auto rounding : {Rounding::kNearest, Rounding::kTruncate}) {
      const FixedPoint q(bits, rounding);
      for (double v = -1.0; v <= 1.0; v += 0.00113) {
        EXPECT_LE(std::fabs(q.quantize(v) - v), q.max_error() + 1e-15);
      }
    }
  }
}

TEST(FixedPoint, IdempotentOnGridPoints) {
  const FixedPoint q(5, Rounding::kNearest);
  for (double v = -1.0; v <= 1.0; v += 0.173) {
    const double once = q.quantize(v);
    EXPECT_DOUBLE_EQ(q.quantize(once), once);
  }
}

TEST(PrecisionScheme, LambdasMatchBitWidths) {
  PrecisionScheme scheme;
  scheme.bits = {3, 5};
  const auto lambdas = scheme.lambdas();
  ASSERT_EQ(lambdas.size(), 2u);
  EXPECT_DOUBLE_EQ(lambdas[0], 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(lambdas[1], 1.0 / 64.0);
}

TEST(QuantizedEval, HighPrecisionConvergesToExact) {
  Rng rng(5);
  const auto net = nn::NetworkBuilder(2).hidden(6).hidden(5).build(rng);
  PrecisionScheme scheme;
  scheme.bits = {40, 40};
  nn::Workspace ws;
  const std::vector<double> x{0.3, 0.8};
  EXPECT_NEAR(evaluate_quantized(net, x, scheme, ws), net.evaluate(x, ws),
              1e-9);
}

TEST(QuantizedEval, DegradationShrinksWithBits) {
  Rng rng(7);
  const auto net = nn::NetworkBuilder(2).hidden(8).hidden(8).build(rng);
  nn::Workspace ws;
  Rng probe_rng(9);
  double previous = 1e9;
  for (std::size_t bits : {2u, 4u, 8u, 12u}) {
    PrecisionScheme scheme;
    scheme.bits = {bits, bits};
    double worst = 0.0;
    for (int n = 0; n < 64; ++n) {
      const std::vector<double> x{probe_rng.uniform(), probe_rng.uniform()};
      worst = std::max(worst, std::fabs(net.evaluate(x, ws) -
                                        evaluate_quantized(net, x, scheme, ws)));
    }
    EXPECT_LE(worst, previous + 1e-12);
    previous = worst;
  }
}

TEST(QuantizedEval, GoldenBitsPerRoundingMode) {
  // Exact output bits of quantised evaluation for every rounding mode, so
  // a change of forward implementation cannot move a single bit (nor the
  // order of stochastic rounding's draws). The constants were captured
  // from the hooked forward pass the quantiser used to run on.
  Rng rng(23);
  const auto net = nn::NetworkBuilder(3)
                       .activation(nn::ActivationKind::kSigmoid, 1.0)
                       .hidden(9)
                       .hidden(7)
                       .init(nn::InitKind::kUniform, 0.8)
                       .build(rng);
  Rng probe_rng(29);
  std::vector<std::vector<double>> probes(16);
  for (auto& x : probes) {
    x = {probe_rng.uniform(), probe_rng.uniform(), probe_rng.uniform()};
  }
  const std::pair<Rounding, std::uint64_t> cases[] = {
      {Rounding::kNearest, 0xacc97c008eba42a8ull},
      {Rounding::kTruncate, 0x81ea57a3447f05bfull},
      {Rounding::kStochastic, 0x586fb8a69883b912ull}};
  nn::Workspace ws;
  for (const auto& [rounding, expected] : cases) {
    PrecisionScheme scheme;
    scheme.bits = {5, 7};
    scheme.rounding = rounding;
    scheme.stochastic_seed = 3;
    // FNV-1a over the outputs' bit patterns.
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const auto& x : probes) {
      hash ^= std::bit_cast<std::uint64_t>(
          evaluate_quantized(net, x, scheme, ws));
      hash *= 0x100000001b3ull;
    }
    EXPECT_EQ(hash, expected) << std::hex << "rounding "
                              << static_cast<int>(rounding) << " 0x" << hash;
  }
}

TEST(QuantizedEval, BoundMatchesTheorem5Formula) {
  Rng rng(11);
  const auto net = nn::NetworkBuilder(2)
                       .activation(nn::ActivationKind::kSigmoid, 1.5)
                       .hidden(3)
                       .hidden(4)
                       .build(rng);
  PrecisionScheme scheme;
  scheme.bits = {6, 9};
  theory::FepOptions options;
  const auto prof = theory::profile_of(net, options);
  const double expected = theory::precision_error_bound(
      prof, scheme.lambdas(), options);
  EXPECT_DOUBLE_EQ(quantization_error_bound(net, scheme, options), expected);
  EXPECT_GT(expected, 0.0);
}

TEST(QuantizeWeights, SnapsAllParameters) {
  Rng rng(13);
  const auto net = nn::NetworkBuilder(2).hidden(4).build(rng);
  const auto quantized = quantize_weights(net, 4);
  const FixedPoint q(4, Rounding::kNearest);
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    for (double w : quantized.layer(l).weights().flat()) {
      EXPECT_DOUBLE_EQ(w, q.quantize(w));
    }
  }
  for (double w : quantized.output_weights()) {
    EXPECT_DOUBLE_EQ(w, q.quantize(w));
  }
  // Weight error bounded by the grid step.
  for (std::size_t l = 1; l <= net.layer_count(); ++l) {
    EXPECT_TRUE(quantized.layer(l).weights().approx_equal(
        net.layer(l).weights(), q.max_error() + 1e-15));
  }
}

TEST(QuantizeWeights, PreservesReceptiveField) {
  Rng rng(17);
  auto net = nn::NetworkBuilder(6).hidden(4).build(rng);
  net.layer(1).set_receptive_field(2);
  EXPECT_EQ(quantize_weights(net, 8).layer(1).receptive_field(), 2u);
}

TEST(Memory, FootprintArithmetic) {
  Rng rng(19);
  const auto net = nn::NetworkBuilder(2).hidden(4).hidden(3).build(rng);
  // synapses: 4*2+4 + 3*4+3 + 3+1 = 31.
  ASSERT_EQ(net.synapse_count(), 31u);
  const auto fp = memory_footprint(net, 8, {16, 16});
  EXPECT_EQ(fp.weight_bits_total, 31u * 8u);
  // Peak live: max(input(2)*16 + layer1(4)*16, layer1(4)*16 + layer2(3)*16).
  EXPECT_EQ(fp.activation_bits_peak, 16u * 7u);
  EXPECT_EQ(fp.total_bits(), 31u * 8u + 112u);
}

TEST(Memory, BaselineIs64Bit) {
  Rng rng(23);
  const auto net = nn::NetworkBuilder(2).hidden(4).build(rng);
  const auto fp = baseline_footprint(net);
  EXPECT_EQ(fp.weight_bits_total, net.synapse_count() * 64u);
}

TEST(Memory, ReducedPrecisionSavesMemory) {
  Rng rng(29);
  const auto net = nn::NetworkBuilder(4).hidden(32).hidden(32).build(rng);
  const auto base = baseline_footprint(net);
  const auto reduced = memory_footprint(net, 8, {8, 8});
  EXPECT_LT(reduced.total_bits(), base.total_bits() / 7);
  EXPECT_GT(reduced.total_kib(), 0.0);
}

}  // namespace
}  // namespace wnf::quant

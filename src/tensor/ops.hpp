// Dense kernels used by the forward/backward passes. gemv (and its
// CSR-masked twin gemv_csr) is the hot path, one per layer per input;
// gemv_transposed and rank1_update carry backprop. gemv_lanes /
// gemv_csr_lanes are the across-probe batched twins of the forward kernels
// (see kLanes for the lane invariant).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace wnf {

/// y = A * x. Requires x.size() == A.cols() and y.size() == A.rows().
void gemv(const Matrix& a, std::span<const double> x, std::span<double> y);

/// CSR-masked y = A * x: row j accumulates only A(j, cols[e]) * x[cols[e]]
/// for e in [row_ptr[j], row_ptr[j+1]), left to right. Because `gemv` also
/// accumulates left to right, this is bit-identical to the dense product
/// whenever every skipped A(j, i) is exactly 0.0 (the `nn::LayerTopology`
/// invariant). row_ptr must have y.size()+1 monotone entries; cols must be
/// sorted per row and index into x.
void gemv_csr(const Matrix& a, std::span<const std::size_t> row_ptr,
              std::span<const std::size_t> cols, std::span<const double> x,
              std::span<double> y);

/// Width of an across-probe block. Lane b of a block carries probe b, and a
/// lane buffer stores entry i of probe b at [i * kLanes + b]: a vector of n
/// entries becomes n rows of kLanes doubles, probes contiguous.
///
/// Lane invariant: every lane is accumulated exactly as the scalar kernel
/// accumulates its one probe -- from 0.0, left to right over the same
/// terms, one rounded multiply and one rounded add per term, never fused
/// (the library builds with -ffp-contract=off). Vector instructions run
/// *across* lanes only, never along one sum, so lane b's bits equal what
/// gemv / gemv_csr compute for probe b alone, on every dispatch variant.
///
/// Why 32: one lane's sum is a serial chain of dependent adds, so the
/// kernel is latency-bound unless it keeps enough independent accumulators
/// in flight. 32 lanes are 8 AVX2 registers of 4 doubles (16 SSE2 registers
/// of 2) -- enough to cover the add latency on two ports -- while a block's
/// input (cols x 256 bytes) still sits in L1 for the widths used here.
/// Narrower blocks (8 lanes, one accumulator) measured slower than scalar.
inline constexpr std::size_t kLanes = 32;

/// Instruction-set variants of the lane kernels. All produce the same bits.
enum class LaneIsa {
  kPortable,  ///< plain C++, vectorised for the build's baseline target
  kAvx2,      ///< x86 AVX2 body, compiled in with a target attribute
};

/// Whether this host can run `isa` (kPortable always can).
bool lane_isa_supported(LaneIsa isa);

/// The best variant this host supports, chosen once at first call.
LaneIsa lane_isa();

/// Y = A * X for kLanes probes at once: X is a.cols() x kLanes and Y is
/// a.rows() x kLanes, lane-major (see kLanes). Bit-identical per lane to
/// gemv on that lane's column.
void gemv_lanes(const Matrix& a, std::span<const double> x, std::span<double> y,
                LaneIsa isa = lane_isa());

/// The CSR twin of gemv_lanes: bit-identical per lane to gemv_csr (same
/// preconditions on row_ptr and cols).
void gemv_csr_lanes(const Matrix& a, std::span<const std::size_t> row_ptr,
                    std::span<const std::size_t> cols, std::span<const double> x,
                    std::span<double> y, LaneIsa isa = lane_isa());

/// Gathers `probes` (at most kLanes, each of size dim) into `block`, a dim x
/// kLanes lane buffer; lanes past probes.size() are zero padding.
void gather_lanes(std::span<const std::vector<double>> probes, std::size_t dim,
                  std::span<double> block);

/// Splits probes [0, n) into kLanes-wide blocks in order: block(begin,
/// count) for every block of at least kLanes / 2 probes (a short block is
/// padded, which still beats running its probes one by one), and single(i)
/// for each probe of a shorter tail.
template <class Block, class Single>
void for_each_lane_block(std::size_t n, Block&& block, Single&& single) {
  for (std::size_t begin = 0; begin < n; begin += kLanes) {
    const std::size_t count = std::min(kLanes, n - begin);
    if (count >= kLanes / 2) {
      block(begin, count);
    } else {
      for (std::size_t i = begin; i < begin + count; ++i) single(i);
    }
  }
}

/// y = A^T * x (used by backprop without materialising the transpose).
/// Requires x.size() == A.rows() and y.size() == A.cols().
void gemv_transposed(const Matrix& a, std::span<const double> x,
                     std::span<double> y);

/// A += alpha * x * y^T (rank-1 update; the backprop weight-gradient step).
void rank1_update(Matrix& a, double alpha, std::span<const double> x,
                  std::span<const double> y);

/// dot(x, y); sizes must match.
double dot(std::span<const double> x, std::span<const double> y);

/// y += alpha * x; sizes must match.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// max_i |x_i| (0 for empty).
double max_abs(std::span<const double> x);

/// Euclidean norm.
double norm2(std::span<const double> x);

}  // namespace wnf

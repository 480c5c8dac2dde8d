#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define WNF_LANES_X86 1
#endif

namespace wnf {
namespace {

// Row structure of the lane kernels: which columns row r sums over, in
// order. The dense and CSR kernels differ only here.
struct DenseRows {
  std::size_t cols;
  std::size_t begin(std::size_t) const { return 0; }
  std::size_t end(std::size_t) const { return cols; }
  std::size_t col(std::size_t e) const { return e; }
};

struct CsrRows {
  const std::size_t* row_ptr;
  const std::size_t* cols;
  std::size_t begin(std::size_t r) const { return row_ptr[r]; }
  std::size_t end(std::size_t r) const { return row_ptr[r + 1]; }
  std::size_t col(std::size_t e) const { return cols[e]; }
};

template <class Rows>
void lanes_portable(const Matrix& a, const Rows& rows, const double* x,
                    double* y) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row(r).data();
    double acc[kLanes] = {};
    for (std::size_t e = rows.begin(r); e < rows.end(r); ++e) {
      const std::size_t c = rows.col(e);
      const double w = row[c];
      const double* xc = x + c * kLanes;
      for (std::size_t b = 0; b < kLanes; ++b) acc[b] += w * xc[b];
    }
    std::copy(acc, acc + kLanes, y + r * kLanes);
  }
}

#ifdef WNF_LANES_X86
// Eight independent 4-double accumulators per row; separate mul and add
// intrinsics (no FMA) keep each lane's rounding that of the scalar kernel.
template <class Rows>
__attribute__((target("avx2"))) void lanes_avx2(const Matrix& a,
                                                const Rows& rows,
                                                const double* x, double* y) {
  static_assert(kLanes == 32, "the AVX2 body holds 8 x 4 lanes");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row(r).data();
    __m256d acc[8];
    for (auto& v : acc) v = _mm256_setzero_pd();
    for (std::size_t e = rows.begin(r); e < rows.end(r); ++e) {
      const std::size_t c = rows.col(e);
      const __m256d w = _mm256_broadcast_sd(row + c);
      const double* xc = x + c * kLanes;
      for (int k = 0; k < 8; ++k) {
        acc[k] = _mm256_add_pd(acc[k],
                               _mm256_mul_pd(w, _mm256_loadu_pd(xc + 4 * k)));
      }
    }
    double* yr = y + r * kLanes;
    for (int k = 0; k < 8; ++k) _mm256_storeu_pd(yr + 4 * k, acc[k]);
  }
}
#endif

template <class Rows>
void lanes_dispatch(const Matrix& a, const Rows& rows, const double* x,
                    double* y, LaneIsa isa) {
  WNF_EXPECTS(lane_isa_supported(isa));
#ifdef WNF_LANES_X86
  if (isa == LaneIsa::kAvx2) {
    lanes_avx2(a, rows, x, y);
    return;
  }
#endif
  lanes_portable(a, rows, x, y);
}

}  // namespace

void gemv(const Matrix& a, std::span<const double> x, std::span<double> y) {
  WNF_EXPECTS(x.size() == a.cols());
  WNF_EXPECTS(y.size() == a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    double sum = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c) sum += row[c] * x[c];
    y[r] = sum;
  }
}

void gemv_csr(const Matrix& a, std::span<const std::size_t> row_ptr,
              std::span<const std::size_t> cols, std::span<const double> x,
              std::span<double> y) {
  WNF_EXPECTS(x.size() == a.cols());
  WNF_EXPECTS(y.size() == a.rows());
  WNF_EXPECTS(row_ptr.size() == a.rows() + 1);
  WNF_EXPECTS(row_ptr.empty() || row_ptr[a.rows()] == cols.size());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    double sum = 0.0;
    for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      const std::size_t c = cols[e];
      sum += row[c] * x[c];
    }
    y[r] = sum;
  }
}

bool lane_isa_supported(LaneIsa isa) {
  switch (isa) {
    case LaneIsa::kPortable:
      return true;
    case LaneIsa::kAvx2:
#ifdef WNF_LANES_X86
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

LaneIsa lane_isa() {
  static const LaneIsa best = lane_isa_supported(LaneIsa::kAvx2)
                                  ? LaneIsa::kAvx2
                                  : LaneIsa::kPortable;
  return best;
}

void gemv_lanes(const Matrix& a, std::span<const double> x, std::span<double> y,
                LaneIsa isa) {
  WNF_EXPECTS(x.size() == a.cols() * kLanes);
  WNF_EXPECTS(y.size() == a.rows() * kLanes);
  lanes_dispatch(a, DenseRows{a.cols()}, x.data(), y.data(), isa);
}

void gemv_csr_lanes(const Matrix& a, std::span<const std::size_t> row_ptr,
                    std::span<const std::size_t> cols, std::span<const double> x,
                    std::span<double> y, LaneIsa isa) {
  WNF_EXPECTS(x.size() == a.cols() * kLanes);
  WNF_EXPECTS(y.size() == a.rows() * kLanes);
  WNF_EXPECTS(row_ptr.size() == a.rows() + 1);
  WNF_EXPECTS(row_ptr.empty() || row_ptr[a.rows()] == cols.size());
  lanes_dispatch(a, CsrRows{row_ptr.data(), cols.data()}, x.data(), y.data(),
                 isa);
}

void gather_lanes(std::span<const std::vector<double>> probes, std::size_t dim,
                  std::span<double> block) {
  WNF_EXPECTS(probes.size() <= kLanes);
  WNF_EXPECTS(block.size() == dim * kLanes);
  std::fill(block.begin(), block.end(), 0.0);
  for (std::size_t b = 0; b < probes.size(); ++b) {
    WNF_EXPECTS(probes[b].size() == dim);
    for (std::size_t i = 0; i < dim; ++i) block[i * kLanes + b] = probes[b][i];
  }
}

void gemv_transposed(const Matrix& a, std::span<const double> x,
                     std::span<double> y) {
  WNF_EXPECTS(x.size() == a.rows());
  WNF_EXPECTS(y.size() == a.cols());
  std::fill(y.begin(), y.end(), 0.0);
  // Row-major friendly order: stream each row of A once.
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto row = a.row(r);
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < row.size(); ++c) y[c] += row[c] * xr;
  }
}

void rank1_update(Matrix& a, double alpha, std::span<const double> x,
                  std::span<const double> y) {
  WNF_EXPECTS(x.size() == a.rows());
  WNF_EXPECTS(y.size() == a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double ax = alpha * x[r];
    if (ax == 0.0) continue;
    const auto row = a.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += ax * y[c];
  }
}

double dot(std::span<const double> x, std::span<const double> y) {
  WNF_EXPECTS(x.size() == y.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  WNF_EXPECTS(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double max_abs(std::span<const double> x) {
  double best = 0.0;
  for (double value : x) best = std::max(best, std::fabs(value));
  return best;
}

double norm2(std::span<const double> x) {
  double sum = 0.0;
  for (double value : x) sum += value * value;
  return std::sqrt(sum);
}

}  // namespace wnf

// Scalar reference implementation of the transform slots.
//
// This is the ground truth the vector variants reproduce bit for bit: plain
// triple loops over doubles, each sum started at 0.0 and accumulated in
// ascending index order. The library is built with -ffp-contract=off, so no
// compiler fuses a multiply into the following add here or in a variant.

#include <algorithm>
#include <cmath>
#include <numbers>

#include "simd/sad_kernels.hpp"

namespace acbm::simd::detail {

namespace {

constexpr int kN = kTransformSize;

/// basis[u][x] = C(u)·cos((2x+1)uπ/16)/2 with C(0)=1/√2 — the orthonormal
/// 1-D DCT basis. Computed once at static-init time.
struct Basis {
  double b[kN][kN];

  Basis() {
    for (int u = 0; u < kN; ++u) {
      const double cu = u == 0 ? 1.0 / std::sqrt(2.0) : 1.0;
      for (int x = 0; x < kN; ++x) {
        b[u][x] = 0.5 * cu *
                  std::cos((2.0 * x + 1.0) * u * std::numbers::pi / 16.0);
      }
    }
  }
};

const Basis kBasis;

}  // namespace

void forward_dct8x8_scalar(const std::int16_t* in, double* out) {
  // Rows first.
  double tmp[kTransformSamples];
  for (int y = 0; y < kN; ++y) {
    for (int u = 0; u < kN; ++u) {
      double s = 0.0;
      for (int x = 0; x < kN; ++x) {
        s += kBasis.b[u][x] * in[y * kN + x];
      }
      tmp[y * kN + u] = s;
    }
  }
  // Columns.
  for (int u = 0; u < kN; ++u) {
    for (int v = 0; v < kN; ++v) {
      double s = 0.0;
      for (int y = 0; y < kN; ++y) {
        s += kBasis.b[v][y] * tmp[y * kN + u];
      }
      out[v * kN + u] = s;
    }
  }
}

void inverse_dct8x8_scalar(const double* in, double* out) {
  double tmp[kTransformSamples];
  // Columns first (transpose of forward order; any order is valid).
  for (int u = 0; u < kN; ++u) {
    for (int y = 0; y < kN; ++y) {
      double s = 0.0;
      for (int v = 0; v < kN; ++v) {
        s += kBasis.b[v][y] * in[v * kN + u];
      }
      tmp[y * kN + u] = s;
    }
  }
  // Rows.
  for (int y = 0; y < kN; ++y) {
    for (int x = 0; x < kN; ++x) {
      double s = 0.0;
      for (int u = 0; u < kN; ++u) {
        s += kBasis.b[u][x] * tmp[y * kN + u];
      }
      out[y * kN + x] = s;
    }
  }
}

void inverse_dct8x8_to_int_scalar(const std::int16_t* in, std::int16_t* out,
                                  int limit) {
  double coeffs[kTransformSamples];
  for (int i = 0; i < kTransformSamples; ++i) {
    coeffs[i] = in[i];
  }
  double spatial[kTransformSamples];
  inverse_dct8x8_scalar(coeffs, spatial);
  for (int i = 0; i < kTransformSamples; ++i) {
    const long r = std::lround(spatial[i]);
    out[i] = static_cast<std::int16_t>(std::clamp<long>(r, -limit, limit));
  }
}

const double* dct_basis() noexcept { return &kBasis.b[0][0]; }

}  // namespace acbm::simd::detail

// AVX2 variant of the transform slots.
//
// Each 256-bit lane computes one output index of the scalar reference
// (dct_scalar.cpp) with the same arithmetic: the sum starts at 0.0 and
// takes its terms in the same order, every product rounded before it is
// added (separate VMULPD/VADDPD; the library is built with -ffp-contract=off
// so the compiler never fuses them). The lanes therefore hold the scalar
// code's doubles bit for bit; the vector code only does four outputs at a
// time. Lane = output column everywhere, so no pass needs a transpose:
// the passes that sum along a row broadcast one input sample and load four
// basis entries, the passes that sum along a column broadcast one basis
// entry and load four partial sums.
//
// Compiled with -mavx2 when the CMake feature probe accepts the flag; only
// the nullptr rounding accessor otherwise.

#include "simd/sad_kernels.hpp"

#if !defined(ACBM_DISABLE_SIMD) && defined(__AVX2__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

namespace acbm::simd::detail {
namespace {

constexpr int kN = kTransformSize;

/// The basis and its transpose, 32-byte aligned for whole-row vector loads:
/// b[u·8 + x] = basis[u][x], bt[x·8 + u] = basis[u][x]. A function-local
/// static (built on first use from dct_basis()) rather than a namespace-scope
/// table, so the library gains no static initializer.
struct Tables {
  alignas(32) double b[kTransformSamples];
  alignas(32) double bt[kTransformSamples];
};

const Tables& tables() {
  static const Tables t = [] {
    Tables out;
    const double* basis = dct_basis();
    for (int u = 0; u < kN; ++u) {
      for (int x = 0; x < kN; ++x) {
        out.b[u * kN + x] = basis[u * kN + x];
        out.bt[x * kN + u] = basis[u * kN + x];
      }
    }
    return out;
  }();
  return t;
}

/// Eight int16 values → two vectors of four doubles (exact).
inline void load_row(const std::int16_t* in, __m256d& lo, __m256d& hi) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  lo = _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(v));
  hi = _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(_mm_unpackhi_epi64(v, v)));
}

/// std::lround then clamp to [-limit, limit], four lanes at a time, as
/// int32. t = trunc(s) and f = s − t are exact, and so is 2f, whose
/// truncation is copysign(1, s) exactly when |f| ≥ 0.5 and 0 otherwise:
/// t + trunc(2f) is lround(s) for every double, ties included, with none of
/// floor(s + 0.5)'s error at nextafter(0.5, 0).
inline __m128i round_clamp4(__m256d s, __m256d lo, __m256d hi) {
  constexpr int kTrunc = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
  const __m256d t = _mm256_round_pd(s, kTrunc);
  const __m256d f = _mm256_sub_pd(s, t);
  const __m256d r =
      _mm256_add_pd(t, _mm256_round_pd(_mm256_add_pd(f, f), kTrunc));
  return _mm256_cvtpd_epi32(_mm256_min_pd(_mm256_max_pd(r, lo), hi));
}

/// Eight int32 → int16 with the wrap-around of static_cast<std::int16_t>
/// (the low 16 bits), so any limit the scalar code accepts matches.
inline void store_int16x8(std::int16_t* out, __m128i a, __m128i b) {
  const __m128i low16 = _mm_set1_epi32(0xFFFF);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_packus_epi32(_mm_and_si128(a, low16),
                                    _mm_and_si128(b, low16)));
}

void round_clamp_avx2(const double* in, std::int16_t* out, int n,
                      int limit) {
  const __m256d hi = _mm256_set1_pd(static_cast<double>(limit));
  const __m256d lo = _mm256_set1_pd(-static_cast<double>(limit));
  for (int i = 0; i < n; i += 8) {
    store_int16x8(out + i, round_clamp4(_mm256_loadu_pd(in + i), lo, hi),
                  round_clamp4(_mm256_loadu_pd(in + i + 4), lo, hi));
  }
}

}  // namespace

void forward_dct8x8_avx2(const std::int16_t* in, double* out) {
  const Tables& t = tables();
  const __m256d zero = _mm256_setzero_pd();
  alignas(32) double samples[kTransformSamples];
  for (int y = 0; y < kN; ++y) {
    __m256d lo;
    __m256d hi;
    load_row(in + y * kN, lo, hi);
    _mm256_store_pd(samples + y * kN, lo);
    _mm256_store_pd(samples + y * kN + 4, hi);
  }
  // Rows: tmp[y][u] = Σ_x b[u][x]·in[y][x], lanes u..u+3.
  __m256d tmp[kN][2];
  for (int y = 0; y < kN; ++y) {
    __m256d s0 = zero;
    __m256d s1 = zero;
    for (int x = 0; x < kN; ++x) {
      const __m256d v = _mm256_broadcast_sd(samples + y * kN + x);
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(_mm256_load_pd(t.bt + x * kN), v));
      s1 = _mm256_add_pd(s1,
                         _mm256_mul_pd(_mm256_load_pd(t.bt + x * kN + 4), v));
    }
    tmp[y][0] = s0;
    tmp[y][1] = s1;
  }
  // Columns: out[v][u] = Σ_y b[v][y]·tmp[y][u], lanes u..u+3.
  for (int v = 0; v < kN; ++v) {
    __m256d s0 = zero;
    __m256d s1 = zero;
    for (int y = 0; y < kN; ++y) {
      const __m256d c = _mm256_broadcast_sd(t.b + v * kN + y);
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(c, tmp[y][0]));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(c, tmp[y][1]));
    }
    _mm256_storeu_pd(out + v * kN, s0);
    _mm256_storeu_pd(out + v * kN + 4, s1);
  }
}

void inverse_dct8x8_to_int_avx2(const std::int16_t* in, std::int16_t* out,
                                int limit) {
  const Tables& t = tables();
  const __m256d zero = _mm256_setzero_pd();
  __m256d coeffs[kN][2];
  for (int v = 0; v < kN; ++v) {
    load_row(in + v * kN, coeffs[v][0], coeffs[v][1]);
  }
  // Columns: tmp[y][u] = Σ_v b[v][y]·in[v][u], lanes u..u+3.
  alignas(32) double tmp[kTransformSamples];
  for (int y = 0; y < kN; ++y) {
    __m256d s0 = zero;
    __m256d s1 = zero;
    for (int v = 0; v < kN; ++v) {
      const __m256d c = _mm256_broadcast_sd(t.b + v * kN + y);
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(c, coeffs[v][0]));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(c, coeffs[v][1]));
    }
    _mm256_store_pd(tmp + y * kN, s0);
    _mm256_store_pd(tmp + y * kN + 4, s1);
  }
  // Rows: s[y][x] = Σ_u b[u][x]·tmp[y][u], lanes x..x+3; then round and
  // clamp.
  const __m256d hi = _mm256_set1_pd(static_cast<double>(limit));
  const __m256d lo = _mm256_set1_pd(-static_cast<double>(limit));
  for (int y = 0; y < kN; ++y) {
    __m256d s0 = zero;
    __m256d s1 = zero;
    for (int u = 0; u < kN; ++u) {
      const __m256d v = _mm256_broadcast_sd(tmp + y * kN + u);
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(_mm256_load_pd(t.b + u * kN), v));
      s1 = _mm256_add_pd(s1,
                         _mm256_mul_pd(_mm256_load_pd(t.b + u * kN + 4), v));
    }
    store_int16x8(out + y * kN, round_clamp4(s0, lo, hi),
                  round_clamp4(s1, lo, hi));
  }
}

RoundClampFn avx2_round_clamp() { return round_clamp_avx2; }

}  // namespace acbm::simd::detail

#else  // variant compiled out

namespace acbm::simd::detail {

RoundClampFn avx2_round_clamp() { return nullptr; }

}  // namespace acbm::simd::detail

#endif

// Transform parity: every compiled-and-supported variant's forward DCT and
// inverse-DCT-to-int must reproduce the scalar reference byte for byte
// (memcmp, so even the sign of a zero coefficient counts) over random
// residuals, sparse and dense dequantized coefficients, DC-only and
// all-zero blocks and outputs that hit the clamp — plus direct checks of
// the AVX2 rounding step on exact ties and just below one half.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "simd/dispatch.hpp"
#include "util/rng.hpp"

namespace acbm::simd {
namespace {

using Block = std::int16_t[kTransformSamples];

/// Every variant this build/CPU offers beyond the scalar reference.
std::vector<const SadKernels*> vector_variants() {
  std::vector<const SadKernels*> tables;
  for (KernelIsa isa : {KernelIsa::kSse2, KernelIsa::kAvx2}) {
    if (const SadKernels* t = kernels_for(isa)) {
      tables.push_back(t);
    }
  }
  return tables;
}

int random_in(util::Rng& rng, int bound) {
  return static_cast<int>(rng.next_below(2 * bound + 1)) - bound;
}

/// Forward and inverse outputs of `t` on `in` must equal the scalar ones.
void expect_matches_scalar(const SadKernels& t, const Block& in, int limit,
                           const std::string& what) {
  const SadKernels& ref = *detail::scalar_kernels();
  double want_f[kTransformSamples];
  double got_f[kTransformSamples];
  ref.fdct8x8(in, want_f);
  t.fdct8x8(in, got_f);
  EXPECT_EQ(std::memcmp(want_f, got_f, sizeof want_f), 0)
      << t.name << " forward DCT differs on " << what;
  std::int16_t want_i[kTransformSamples];
  std::int16_t got_i[kTransformSamples];
  ref.idct8x8_to_int(in, want_i, limit);
  t.idct8x8_to_int(in, got_i, limit);
  EXPECT_EQ(std::memcmp(want_i, got_i, sizeof want_i), 0)
      << t.name << " inverse DCT differs on " << what << " (limit " << limit
      << ")";
}

TEST(SimdTransform, TablesHaveTransformSlots) {
  for (KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kSse2, KernelIsa::kAvx2,
        KernelIsa::kAuto}) {
    if (const SadKernels* t = kernels_for(isa)) {
      EXPECT_NE(t->fdct8x8, nullptr) << t->name;
      EXPECT_NE(t->idct8x8_to_int, nullptr) << t->name;
    }
  }
}

TEST(SimdTransform, RandomResidualsMatchScalar) {
  util::Rng rng(0x7e57d0c7);
  for (const SadKernels* t : vector_variants()) {
    for (int trial = 0; trial < 20000; ++trial) {
      Block in;
      for (std::int16_t& v : in) {
        v = static_cast<std::int16_t>(random_in(rng, 255));
      }
      expect_matches_scalar(*t, in, 512, "random residual");
      if (HasFailure()) {
        return;
      }
    }
  }
}

TEST(SimdTransform, DequantizedCoefficientsMatchScalar) {
  util::Rng rng(0xc0eff);
  for (const SadKernels* t : vector_variants()) {
    for (int trial = 0; trial < 20000; ++trial) {
      // Sparse: a handful of nonzero levels, as quantization leaves them;
      // dense: every position populated.
      const bool sparse = trial % 2 == 0;
      Block in = {};
      const int count = sparse ? 1 + static_cast<int>(rng.next_below(6))
                               : kTransformSamples;
      for (int k = 0; k < count; ++k) {
        const int pos = sparse ? static_cast<int>(rng.next_below(64)) : k;
        in[pos] = static_cast<std::int16_t>(random_in(rng, 2047));
      }
      expect_matches_scalar(*t, in, 512,
                            sparse ? "sparse coefficients"
                                   : "dense coefficients");
      if (HasFailure()) {
        return;
      }
    }
  }
}

TEST(SimdTransform, DcOnlyAndZeroBlocksMatchScalar) {
  for (const SadKernels* t : vector_variants()) {
    const Block zero = {};
    expect_matches_scalar(*t, zero, 512, "all-zero block");
    for (int dc = -2048; dc <= 2048; ++dc) {
      Block in = {};
      in[0] = static_cast<std::int16_t>(dc);
      expect_matches_scalar(*t, in, 512, "DC " + std::to_string(dc));
      if (HasFailure()) {
        return;
      }
    }
  }
}

TEST(SimdTransform, ClampedOutputsMatchScalar) {
  util::Rng rng(0xc1a3b);
  for (const SadKernels* t : vector_variants()) {
    for (int trial = 0; trial < 5000; ++trial) {
      Block in;
      for (std::int16_t& v : in) {
        v = static_cast<std::int16_t>(random_in(rng, 2047));
      }
      in[0] = static_cast<std::int16_t>(trial % 2 == 0 ? 16000 : -16000);
      // Small limits clamp most samples; 40000 exceeds int16, where the
      // scalar code keeps the low 16 bits of the clamped value.
      for (int limit : {0, 1, 255, 300, 512, 40000}) {
        expect_matches_scalar(*t, in, limit, "clamped block");
      }
      if (HasFailure()) {
        return;
      }
    }
  }
}

TEST(SimdTransform, RoundingMatchesLroundOnTiesAndNearHalves) {
  const detail::RoundClampFn round_clamp = detail::avx2_round_clamp();
  if (round_clamp == nullptr || kernels_for(KernelIsa::kAvx2) == nullptr) {
    GTEST_SKIP() << "AVX2 variant unavailable on this build/CPU";
  }
  std::vector<double> in;
  for (int k = -40; k <= 40; ++k) {
    const double tie = k + 0.5;  // exact in binary: must round away from 0
    in.insert(in.end(), {tie, std::nextafter(tie, 0.0),
                         std::nextafter(tie, tie * 2.0), double(k),
                         k + 0.25, k + 0.75});
  }
  // nextafter(0.5, 0) is where floor(s + 0.5) goes wrong: it rounds to 1.
  in.insert(in.end(), {std::nextafter(0.5, 0.0), -std::nextafter(0.5, 0.0),
                       0.5, -0.5, 0.0, -0.0, 1e-300, -1e-300,
                       4503599627370495.5, -4503599627370495.5});
  while (in.size() % 8 != 0) {
    in.push_back(0.0);
  }
  for (int limit : {512, 3, 0}) {
    std::vector<std::int16_t> got(in.size());
    round_clamp(in.data(), got.data(), static_cast<int>(in.size()), limit);
    for (std::size_t i = 0; i < in.size(); ++i) {
      long want = std::lround(in[i]);
      want = want < -limit ? -limit : (want > limit ? limit : want);
      EXPECT_EQ(got[i], static_cast<std::int16_t>(want))
          << "input " << in[i] << " limit " << limit;
    }
  }
}

}  // namespace
}  // namespace acbm::simd

#pragma once
// 8×8 orthonormal type-II DCT / type-III IDCT.
//
// The transform pair is exact to floating-point precision; quantization is
// the only lossy stage in the codec. With the orthonormal scaling the DC
// coefficient equals 8·(block mean), so intra DC fits H.263's fixed
// step-8 quantizer (levels 1..254 cover means 0..255).
//
// forward_dct8x8 and inverse_dct8x8_to_int run through the active kernel
// table (simd/dispatch.hpp); every variant returns the scalar reference's
// bits (simd/sad_kernels.hpp states the evaluation order), so the kernel
// choice never changes a coefficient or a reconstructed sample.

#include <cstdint>

#include "simd/sad_kernels.hpp"

namespace acbm::codec {

inline constexpr int kDctSize = simd::kTransformSize;
inline constexpr int kDctSamples = simd::kTransformSamples;

/// Forward DCT: spatial samples/residuals (row-major) → coefficients.
void forward_dct8x8(const std::int16_t in[kDctSamples],
                    double out[kDctSamples]);

/// Inverse DCT: coefficients → spatial values (row-major, unrounded).
/// Always the scalar reference.
void inverse_dct8x8(const double in[kDctSamples], double out[kDctSamples]);

/// Inverse DCT from integer (dequantized) coefficients, rounded to the
/// nearest integer and clamped to [-limit, limit]. The codec passes
/// limit = 512 for both residuals and intra samples; the callers then clamp
/// the reconstruction to 0..255.
void inverse_dct8x8_to_int(const std::int16_t in[kDctSamples],
                           std::int16_t out[kDctSamples], int limit = 512);

}  // namespace acbm::codec

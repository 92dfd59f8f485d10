#pragma once
// The kernel function table — the contract every ISA variant implements.
//
// Two inner loops dominate an encode: the SAD loop of motion estimation and
// the 8×8 transforms of the plan stage, the reconstruction loop and the
// decoder. They are the one place in the repository with per-ISA code. The
// rest of the system never names an instruction set: `me::sad_block`,
// `codec::forward_dct8x8` and friends call through the table returned by
// `simd::active_kernels()` (see dispatch.hpp), and every variant of the
// table computes *bit-identical results* — the scalar implementation is the
// ground truth, and tests/simd_sad_test.cpp and
// tests/simd_transform_test.cpp hold the SSE2/AVX2 variants to exact
// equality over randomized inputs.
//
// Slots, in table order:
//   sad                        full-block SAD, row-group early-exit bound
//   sad_row                    full SADs of one block against n
//                              horizontally adjacent candidates (FSBM's
//                              integer scan)
//   sad_halfpel                fused half-pel interpolate + SAD
//   sad_quincunx, sad_rowskip  the two decimated SAD patterns
//   fdct8x8, idct8x8_to_int    the 8×8 transforms
//
// Kernels operate on raw row pointers + strides rather than video::Plane so
// the ISA translation units depend on nothing but this header. Callers are
// responsible for bounds: a SAD kernel reads exactly `bw` samples from each
// of `bh` rows (every other row for the decimated patterns) starting at the
// given pointers — no overread, which keeps the kernels sanitizer-clean
// against video::Plane's border guarantee. sad_row reads the union of its
// candidates' footprints: `bw + n − 1` samples from each reference row.

#include <cstdint>

namespace acbm::simd {

/// @brief Early-exit check granularity, in rows, shared by every variant.
///
/// The full-block SAD kernel compares its running total against the caller's
/// bound after each group of `kEarlyExitRowQuantum` rows (and after the
/// final, possibly shorter, group) — not after every row. Hoisting the check
/// to row-group granularity is what lets a 256-bit kernel process two
/// 16-sample rows per instruction while still returning *exactly* the same
/// value as the scalar reference: all variants accumulate the same groups in
/// the same order, so the partial total at every checkpoint is identical.
inline constexpr int kEarlyExitRowQuantum = 4;

/// @brief Full-block SAD with an early-exit bound.
///
/// @param cur        first sample of the current block's top row
/// @param cur_stride distance in samples between vertically adjacent rows
/// @param ref        first sample of the reference block's top row
/// @param ref_stride reference row stride in samples
/// @param bw,bh      block width/height in samples (any positive values)
/// @param early_exit if the running total exceeds this after any
///                   kEarlyExitRowQuantum-row group, the kernel returns that
///                   partial total (> early_exit) without finishing the
///                   block. Pass 0xFFFFFFFF for "no bound".
/// @return the exact SAD over all rows processed; every ISA variant returns
///         the same value for the same inputs (including partial totals).
using SadFn = std::uint32_t (*)(const std::uint8_t* cur, int cur_stride,
                                const std::uint8_t* ref, int ref_stride,
                                int bw, int bh, std::uint32_t early_exit);

/// @brief Full SADs of one block against `n` horizontally adjacent
/// reference positions.
///
/// Sets out[i] = the SadFn value of (cur, ref + i) with no early-exit bound,
/// for i in [0, n). The kernel loads each current row once per group of
/// candidates instead of once per candidate (x264's sad_x4), and pays for
/// no early-exit checkpoints. Same pointer/stride conventions as SadFn;
/// n ≥ 1. Every variant writes the same values as the scalar reference.
using SadRowFn = void (*)(const std::uint8_t* cur, int cur_stride,
                          const std::uint8_t* ref, int ref_stride, int bw,
                          int bh, int n, std::uint32_t* out);

/// @brief Decimated SAD (no early exit — decimation already bounds the work).
/// Same pointer/stride conventions as SadFn.
using SadPatternFn = std::uint32_t (*)(const std::uint8_t* cur, int cur_stride,
                                       const std::uint8_t* ref, int ref_stride,
                                       int bw, int bh);

/// @brief Fused half-pel interpolate + SAD.
///
/// `ref` points at the INTEGER-pel reference sample (rX, rY) = the floor of
/// the half-pel block origin; (phase_h, phase_v) ∈ {0,1}² select the H.263
/// bilinear phase. The kernel synthesises each interpolated reference
/// sample on the fly — (a+b+1)>>1 for the H/V phases, (a+b+c+d+2)>>2 for
/// HV — and accumulates |cur − interp| under the same
/// kEarlyExitRowQuantum-row early-exit contract as SadFn, so every variant
/// returns bit-identical values (including partial totals) to matching a
/// pre-interpolated phase plane with the plain SAD kernel. A kernel reads
/// `bw + phase_h` samples from each of `bh + phase_v` reference rows; the
/// caller guarantees those bounds (the integer plane keeps one more border
/// sample than the legacy phase planes carried, exactly covering the +1
/// overread).
///
/// Phase (0, 0) degrades to the plain SAD — callers need not special-case
/// integer candidates.
using SadHalfpelFn = std::uint32_t (*)(const std::uint8_t* cur, int cur_stride,
                                       const std::uint8_t* ref, int ref_stride,
                                       int phase_h, int phase_v, int bw, int bh,
                                       std::uint32_t early_exit);

/// @brief Samples in the square block the transform slots work on (8×8).
inline constexpr int kTransformSize = 8;
inline constexpr int kTransformSamples = kTransformSize * kTransformSize;

/// @brief Forward 8×8 orthonormal type-II DCT of row-major int16 samples or
/// residuals into row-major coefficients.
///
/// Exactness contract: each output is the scalar reference's double — rows
/// first, out[v][u] = Σ_y b[v][y]·(Σ_x b[u][x]·in[y][x]), every sum started
/// at 0.0 and accumulated in ascending index order with separately rounded
/// multiplies and adds (no FMA). Vector variants may put one output index in
/// each lane but may not reorder a sum.
using ForwardDctFn = void (*)(const std::int16_t* in, double* out);

/// @brief Inverse 8×8 DCT of row-major int16 coefficients, rounded to the
/// nearest integer (half away from zero, as std::lround) and clamped to
/// [-limit, limit].
///
/// Same exactness contract as ForwardDctFn, with the columns pass first:
/// s[y][x] = Σ_u b[u][x]·(Σ_v b[v][y]·in[v][u]). This is the reconstruction
/// arithmetic the bitstream is defined by (codec/ref_decoder.hpp).
using InverseDctToIntFn = void (*)(const std::int16_t* in, std::int16_t* out,
                                   int limit);

/// @brief One ISA's complete set of kernels.
///
/// Populated once per compiled variant (scalar always; SSE2/AVX2 when the
/// CMake feature probe enables them) and selected at runtime by
/// simd::dispatch. All function pointers are always non-null; a variant
/// without its own version of a slot points it at the scalar reference.
struct SadKernels {
  /// Full-block SAD with the row-group early-exit contract above.
  SadFn sad;

  /// Full SADs against n horizontally adjacent candidates (see SadRowFn).
  /// FSBM's integer scan calls it once per candidate row.
  SadRowFn sad_row;

  /// Fused interpolate+SAD against the integer-pel reference (see
  /// SadHalfpelFn). me::sad_block_halfpel resolves half-pel coordinates to
  /// an integer origin + phase pair and calls this slot directly; no
  /// pre-interpolated phase planes are involved, which is what lets
  /// video::HalfpelPlanes stay lazy for encodes that only ever match.
  SadHalfpelFn sad_halfpel;

  /// Quincunx 4:1 decimation (Liu–Zaccarin pattern A): every other row is
  /// sampled, and within a sampled row every other column, with the column
  /// phase alternating between sampled rows: row y contributes columns
  /// x ≡ (y>>1)&1 (mod 2), y even. Matches me::DecimationPattern::kQuincunx4to1.
  SadPatternFn sad_quincunx;

  /// Row-skip 2:1 decimation (Chan & Siu): full rows, every other row
  /// (y = 0, 2, 4, ...). Matches me::DecimationPattern::kRowSkip2to1.
  SadPatternFn sad_rowskip;

  /// Forward 8×8 DCT (see ForwardDctFn).
  ForwardDctFn fdct8x8;

  /// Inverse 8×8 DCT with rounding and clamping (see InverseDctToIntFn).
  InverseDctToIntFn idct8x8_to_int;

  /// Stable lowercase identifier: "scalar", "sse2", "avx2". Used by the
  /// --kernel CLI flag and bench output.
  const char* name;
};

namespace detail {
/// Per-variant table accessors. The scalar table always exists; the ISA
/// accessors return nullptr when the variant was compiled out (feature probe
/// failure, non-x86 target, or -DACBM_DISABLE_SIMD=ON).
[[nodiscard]] const SadKernels* scalar_kernels();
[[nodiscard]] const SadKernels* sse2_kernels();
[[nodiscard]] const SadKernels* avx2_kernels();

/// The scalar transforms every variant reproduces bit for bit
/// (dct_scalar.cpp). inverse_dct8x8_scalar is the unrounded double form
/// of the inverse; the other two back the scalar table's slots.
void forward_dct8x8_scalar(const std::int16_t* in, double* out);
void inverse_dct8x8_scalar(const double* in, double* out);
void inverse_dct8x8_to_int_scalar(const std::int16_t* in, std::int16_t* out,
                                  int limit);

/// The orthonormal DCT basis the scalar transforms use, row-major:
/// b[u·8 + x] = 0.5·C(u)·cos((2x+1)uπ/16) with C(0) = 1/√2. noexcept, so
/// a caller that caches a copy in a function-local static needs no
/// exception-cleanup path for its initialisation.
[[nodiscard]] const double* dct_basis() noexcept;

/// The AVX2 transforms (dct_avx2.cpp); only defined where the AVX2 variant
/// is compiled in.
void forward_dct8x8_avx2(const std::int16_t* in, double* out);
void inverse_dct8x8_to_int_avx2(const std::int16_t* in, std::int16_t* out,
                                int limit);

/// Rounds `n` doubles (a multiple of 8) half away from zero and clamps them
/// to [-limit, limit] with the AVX2 inverse transform's vector code, so
/// tests can drive its std::lround emulation directly.
using RoundClampFn = void (*)(const double* in, std::int16_t* out, int n,
                              int limit);

/// The AVX2 rounding step, or nullptr when the AVX2 variant was compiled
/// out. Callers must also check that the CPU supports AVX2.
[[nodiscard]] RoundClampFn avx2_round_clamp();
}  // namespace detail

}  // namespace acbm::simd

// FSBM: optimality, position counts (the paper's 969), half-pel refinement,
// SAD_deviation bookkeeping, half-pel recovery of true sub-pel motion, and
// equivalence of the row-kernel integer scan with a per-candidate scan.

#include "me/full_search.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "me/halfpel.hpp"
#include "me/sad.hpp"
#include "me/search_support.hpp"
#include "simd/dispatch.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace acbm::me {
namespace {

using acbm::test::SearchFixture;
using acbm::test::shifted_pair;

/// FSBM computed the slow way: one SearchState::try_candidate per integer
/// position in raster order, then the half-pel refinement.
FullSearchResult reference_full_search(const BlockContext& ctx) {
  SearchState state(ctx);
  const int min_x = ctx.window.min_x + (ctx.window.min_x & 1);
  const int min_y = ctx.window.min_y + (ctx.window.min_y & 1);
  for (int my = min_y; my <= ctx.window.max_y; my += 2) {
    for (int mx = min_x; mx <= ctx.window.max_x; mx += 2) {
      state.try_candidate({mx, my});
    }
  }
  FullSearchResult full;
  full.best_integer_mv = state.best_mv();
  full.best_integer_sad = state.best_sad();
  full.integer_positions = state.positions();
  full.integer_sad_sum = state.sad_sum();
  refine_halfpel(state);
  full.best = state.result();
  full.best.used_full_search = true;
  return full;
}

/// Restores the default (auto) kernel selection when a test exits.
struct KernelSelectionGuard {
  ~KernelSelectionGuard() { simd::select_kernels(simd::KernelIsa::kAuto); }
};

/// Checks FullSearch's row-kernel scan against reference_full_search under
/// every available kernel variant; the reference runs on the scalar table.
void expect_matches_reference(const BlockContext& ctx,
                              const std::string& label) {
  KernelSelectionGuard guard;
  ASSERT_TRUE(simd::select_kernels(simd::KernelIsa::kScalar));
  const FullSearchResult want = reference_full_search(ctx);
  for (const std::string& kernel : simd::available_kernel_names()) {
    ASSERT_TRUE(simd::select_kernels_by_name(kernel));
    FullSearch fsbm;
    const EstimateResult est = fsbm.estimate(ctx);
    EXPECT_EQ(est.mv, want.best.mv) << label << " " << kernel;
    EXPECT_EQ(est.sad, want.best.sad) << label << " " << kernel;
    EXPECT_EQ(est.positions, want.best.positions) << label << " " << kernel;
    const FullSearchResult got = fsbm.search_full(ctx);
    EXPECT_EQ(got.best.mv, want.best.mv) << label << " " << kernel;
    EXPECT_EQ(got.best.sad, want.best.sad) << label << " " << kernel;
    EXPECT_EQ(got.best.positions, want.best.positions)
        << label << " " << kernel;
    EXPECT_EQ(got.best_integer_mv, want.best_integer_mv)
        << label << " " << kernel;
    EXPECT_EQ(got.best_integer_sad, want.best_integer_sad)
        << label << " " << kernel;
    EXPECT_EQ(got.integer_positions, want.integer_positions)
        << label << " " << kernel;
    EXPECT_EQ(got.integer_sad_sum, want.integer_sad_sum)
        << label << " " << kernel;
    EXPECT_EQ(got.sad_deviation(), want.sad_deviation())
        << label << " " << kernel;
  }
}

/// A plane of 0/1 samples: many candidates tie, so the tie-break decides.
video::Plane two_level_plane(int w, int h, std::uint64_t seed) {
  video::Plane p(w, h);
  util::Rng rng(seed);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      p.set(x, y, static_cast<std::uint8_t>(rng.next_below(2)));
    }
  }
  p.extend_border();
  return p;
}

TEST(FullSearch, FindsExactIntegerShift) {
  for (const auto& [dx, dy] : {std::pair{0, 0}, std::pair{3, -2},
                               std::pair{-7, 5}, std::pair{15, -15}}) {
    auto [ref, cur] = shifted_pair(64, 48, dx, dy, 100 + dx * 31 + dy);
    const SearchFixture fx(std::move(ref), std::move(cur));
    FullSearch fsbm;
    const EstimateResult r = fsbm.estimate(fx.context(16, 16));
    EXPECT_EQ(r.mv, mv_from_fullpel(dx, dy)) << dx << "," << dy;
    EXPECT_EQ(r.sad, 0u);
    EXPECT_TRUE(r.used_full_search);
  }
}

TEST(FullSearch, PositionCountIsPaper969) {
  auto [ref, cur] = shifted_pair(64, 48, 2, 1, 7);
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  const EstimateResult r = fsbm.estimate(fx.context(16, 16, 15));
  EXPECT_EQ(r.positions, 969u);  // 31² integer + 8 half-pel
}

TEST(FullSearch, PositionCountScalesWithRange) {
  auto [ref, cur] = shifted_pair(64, 48, 0, 0, 8);
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  EXPECT_EQ(fsbm.estimate(fx.context(16, 16, 7)).positions, 225u + 8u);
  EXPECT_EQ(fsbm.estimate(fx.context(16, 16, 1)).positions, 9u + 8u);
}

TEST(FullSearch, NoHalfpelWhenDisabled) {
  auto [ref, cur] = shifted_pair(64, 48, 1, 1, 9);
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  BlockContext ctx = fx.context(16, 16, 15);
  ctx.half_pel = false;
  const EstimateResult r = fsbm.estimate(ctx);
  EXPECT_EQ(r.positions, 961u);
  EXPECT_TRUE(r.mv.is_integer());
}

TEST(FullSearch, SadIsGlobalIntegerMinimum) {
  // Verify against an exhaustive naive scan on textured content.
  const SearchFixture fx(acbm::test::random_plane(64, 64, 10),
                         acbm::test::random_plane(64, 64, 11));
  BlockContext ctx = fx.context(32, 32, 7);
  ctx.half_pel = false;
  FullSearch fsbm;
  const EstimateResult r = fsbm.estimate(ctx);
  std::uint32_t best = ~0u;
  for (int dy = -7; dy <= 7; ++dy) {
    for (int dx = -7; dx <= 7; ++dx) {
      best = std::min(best, sad_block(fx.cur, 32, 32, fx.ref, 32 + dx,
                                      32 + dy, 16, 16));
    }
  }
  EXPECT_EQ(r.sad, best);
}

TEST(FullSearch, HalfpelNeverWorseThanInteger) {
  for (int seed = 0; seed < 6; ++seed) {
    const SearchFixture fx(acbm::test::random_plane(64, 64, 20 + seed),
                           acbm::test::random_plane(64, 64, 30 + seed));
    FullSearch fsbm;
    const FullSearchResult full = fsbm.search_full(fx.context(16, 16, 7));
    EXPECT_LE(full.best.sad, full.best_integer_sad);
  }
}

TEST(FullSearch, RecoversTrueHalfpelMotion) {
  // Current frame = reference sampled half a pixel to the right (average of
  // neighbours, H.263 rounding): the half-pel refinement must pick a
  // non-integer vector with a much lower SAD than the best integer one.
  const video::Plane ref = acbm::test::random_plane(64, 48, 40);
  video::Plane cur(64, 48);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      cur.set(x, y, static_cast<std::uint8_t>(
                        (ref.at(x, y) + ref.at(x + 1, y) + 1) >> 1));
    }
  }
  cur.extend_border();
  const SearchFixture fx(ref, cur);
  FullSearch fsbm;
  const FullSearchResult full = fsbm.search_full(fx.context(16, 16, 7));
  EXPECT_EQ(full.best.mv, (Mv{1, 0}));
  EXPECT_EQ(full.best.sad, 0u);
  EXPECT_GT(full.best_integer_sad, 0u);
}

TEST(FullSearch, DeviationZeroOnConstantPicture) {
  video::Plane flat_ref(48, 48);
  flat_ref.fill(99);
  flat_ref.extend_border();
  video::Plane flat_cur = flat_ref;
  const SearchFixture fx(std::move(flat_ref), std::move(flat_cur));
  FullSearch fsbm;
  const FullSearchResult full = fsbm.search_full(fx.context(16, 16, 7));
  EXPECT_EQ(full.sad_deviation(), 0u);  // every candidate SAD identical (0)
  EXPECT_EQ(full.best_integer_sad, 0u);
}

TEST(FullSearch, DeviationLargeOnTexturedPicture) {
  auto [ref, cur] = shifted_pair(64, 48, 4, 4, 50);
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  const FullSearchResult full = fsbm.search_full(fx.context(16, 16, 7));
  EXPECT_EQ(full.best_integer_sad, 0u);
  // Random 8-bit content: off-positions average ≈85 per sample; the sum over
  // 224 wrong candidates must be enormous compared with zero at the truth.
  EXPECT_GT(full.sad_deviation(), 1000000u);
  EXPECT_EQ(full.integer_positions, 225u);
}

TEST(FullSearch, TieBreakPrefersShorterVector) {
  // Constant picture: every candidate has SAD 0 → the zero vector must win.
  video::Plane ref(48, 48);
  ref.fill(50);
  ref.extend_border();
  video::Plane cur = ref;
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  const EstimateResult r = fsbm.estimate(fx.context(16, 16, 7));
  EXPECT_EQ(r.mv, (Mv{0, 0}));
}

TEST(FullSearch, NameIsFsbm) {
  FullSearch fsbm;
  EXPECT_EQ(fsbm.name(), "FSBM");
}

TEST(FullSearchRowKernel, MatchesTryCandidateScanAcrossRanges) {
  // p = 31 gives 63 candidates per row, more than one kernel call.
  const SearchFixture random(acbm::test::random_plane(128, 128, 70),
                             acbm::test::random_plane(128, 128, 71));
  const SearchFixture ties(two_level_plane(128, 128, 72),
                           two_level_plane(128, 128, 73));
  for (const int p : {1, 7, 15, 16, 31}) {
    for (const SearchFixture* fx : {&random, &ties}) {
      BlockContext ctx = fx->context(48, 48, p);
      expect_matches_reference(ctx, "p=" + std::to_string(p));
      // Rate-aware cost: λ > 0 with a non-zero predictor.
      ctx.cost = MotionCost(3.5, Mv{5, -3});
      expect_matches_reference(ctx, "lambda p=" + std::to_string(p));
      ctx.half_pel = false;
      expect_matches_reference(ctx, "integer p=" + std::to_string(p));
    }
  }
}

TEST(FullSearchRowKernel, MatchesTryCandidateScanInRestrictedWindows) {
  const SearchFixture fx(acbm::test::random_plane(96, 80, 80),
                         acbm::test::random_plane(96, 80, 81));
  struct Case {
    int x, y, p, slack;
  };
  // Blocks at the picture's corners and edges, with and without slack.
  const Case cases[] = {{0, 0, 15, 0},   {80, 64, 15, 0}, {0, 32, 31, 2},
                        {80, 0, 16, 7},  {32, 64, 7, 3},  {16, 16, 31, 0},
                        {48, 32, 31, 5}, {64, 48, 1, 0}};
  for (const Case& c : cases) {
    BlockContext ctx = fx.context(c.x, c.y, c.p);
    ctx.window = restricted_window(c.p, c.x, c.y, 16, 16, 96, 80, c.slack);
    expect_matches_reference(ctx, "restricted x=" + std::to_string(c.x) +
                                      " y=" + std::to_string(c.y) +
                                      " p=" + std::to_string(c.p));
  }
  // Odd half-pel bounds: the integer grid starts at the next even
  // coordinate and ends at the previous one; the last window has no
  // integer column at all.
  const SearchWindow odd[] = {
      {-29, 27, -5, 31}, {-61, 61, -3, 3}, {1, 63, -63, -1}, {3, 3, -4, 4}};
  for (const SearchWindow& w : odd) {
    BlockContext ctx = fx.context(40, 32, 31);
    ctx.window = w;
    expect_matches_reference(ctx, "odd [" + std::to_string(w.min_x) + "," +
                                      std::to_string(w.max_x) + "]");
  }
}

class FullSearchRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(FullSearchRangeTest, IntegerPositionsMatchWindowFormula) {
  const int p = GetParam();
  auto [ref, cur] = shifted_pair(96, 96, 0, 0, 60 + p);
  const SearchFixture fx(std::move(ref), std::move(cur));
  FullSearch fsbm;
  BlockContext ctx = fx.context(32, 32, p);
  ctx.half_pel = false;
  const EstimateResult r = fsbm.estimate(ctx);
  EXPECT_EQ(r.positions,
            static_cast<std::uint32_t>((2 * p + 1) * (2 * p + 1)));
}

INSTANTIATE_TEST_SUITE_P(Ranges, FullSearchRangeTest,
                         ::testing::Values(1, 2, 3, 5, 7, 10, 15));

}  // namespace
}  // namespace acbm::me

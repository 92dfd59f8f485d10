#include "me/full_search.hpp"

#include <algorithm>

#include "me/halfpel.hpp"
#include "me/sad.hpp"
#include "me/search_support.hpp"

namespace acbm::me {

namespace {

/// Candidates per sad_block_row call. p = 15 rows (31 candidates) fit one
/// call; wider windows take several. A fixed stack buffer keeps the scan
/// free of heap allocation.
constexpr int kRowChunk = 32;

/// Runs the integer raster scan; leaves `state` positioned at the best
/// integer candidate. Each candidate row is one me::sad_block_row call per
/// chunk of kRowChunk positions — the dispatched simd::SadKernels::sad_row
/// slot, which loads the current block once per group of candidates — and
/// the SADs are then offered to SearchState in raster order, so positions,
/// Σ SAD and the tie-break are exactly those of a try_candidate loop.
void integer_scan(SearchState& state, const BlockContext& ctx) {
  // Even half-pel coordinates are the integer grid.
  const int min_x = ctx.window.min_x + (ctx.window.min_x & 1);
  const int min_y = ctx.window.min_y + (ctx.window.min_y & 1);
  if (min_x > ctx.window.max_x) {
    return;
  }
  const int columns = (ctx.window.max_x - min_x) / 2 + 1;
  const video::Plane& ref = ctx.ref->integer_plane();
  std::uint32_t sads[kRowChunk];
  for (int my = min_y; my <= ctx.window.max_y; my += 2) {
    for (int col = 0; col < columns; col += kRowChunk) {
      const int n = std::min(kRowChunk, columns - col);
      const int mx = min_x + 2 * col;
      sad_block_row(*ctx.cur, ctx.x, ctx.y, ref, ctx.x + mx / 2,
                    ctx.y + my / 2, ctx.bw, ctx.bh, n, sads);
      for (int i = 0; i < n; ++i) {
        state.offer({mx + 2 * i, my}, sads[i]);
      }
    }
  }
}

}  // namespace

EstimateResult FullSearch::estimate(const BlockContext& ctx) {
  if (pattern_ != DecimationPattern::kNone) {
    return estimate_decimated_full_search(ctx, pattern_);
  }
  SearchState state(ctx);
  integer_scan(state, ctx);
  refine_halfpel(state);
  EstimateResult result = state.result();
  result.used_full_search = true;
  return result;
}

FullSearchResult FullSearch::search_full(const BlockContext& ctx) const {
  SearchState state(ctx);
  integer_scan(state, ctx);

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

}  // namespace acbm::me

#pragma once
// The benchmark's own arithmetic, kept free of any library dependency so
// perfbench/tests/arith_test.cpp can pin it down in isolation:
//
//   * nearest-rank percentiles, and the rule that a reported percentile
//     must have at least ten samples beyond it;
//   * open-loop latency, measured from each frame's due time;
//   * the failure and deadline-miss ratios;
//   * span self time (duration minus the part its children cover).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Samples a reported percentile must leave above it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of quantile q (0 < q <= 1) over n samples:
/// ceil(q * n), at least 1. The small epsilon keeps q * n values that are
/// whole numbers in exact arithmetic (0.99 * 1000) from rounding up.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0 || !(q > 0.0) || q > 1.0) {
    throw std::invalid_argument("nearest_rank needs n > 0 and 0 < q <= 1");
  }
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly above the nearest-rank position of q.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

/// True when quantile q of n samples leaves kMinSamplesBeyond above it
/// (p50 needs 20 samples, p99 needs 1000).
[[nodiscard]] inline bool percentile_reportable(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinSamplesBeyond;
}

/// Nearest-rank percentile of an unsorted sample set. Throws when the set
/// is too small for the quantile to be reported (see
/// percentile_reportable), so a short run fails loudly instead of printing
/// a tail figure that rests on a handful of samples.
[[nodiscard]] inline double percentile(std::vector<double> values, double q) {
  if (!percentile_reportable(values.size(), q)) {
    throw std::runtime_error(
        "too few samples for the requested percentile (need ten beyond it)");
  }
  const std::size_t rank = nearest_rank(values.size(), q);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

/// Median that tolerates any non-empty set (used for repeated set-up and
/// decode passes, where the sample count is small by design).
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("median of an empty set");
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Open-loop latency: from the time a frame was due to be submitted to the
/// time its result resolved. Measuring from the due time (not from when the
/// submit call actually ran) charges a stalled generator or a full queue to
/// every frame scheduled behind it.
[[nodiscard]] inline double open_loop_latency_ms(double due_ms,
                                                 double resolved_ms) {
  return resolved_ms - due_ms;
}

/// How one offered frame ended.
enum class Outcome {
  kOk,        ///< encoded, decoded, and the output check passed
  kShed,      ///< refused at admission (overloaded)
  kTimedOut,  ///< deadline passed before dispatch
  kFailed,    ///< resolved with an encode or session error
  kMismatch,  ///< encoded, but the output check failed
};

struct FrameOutcome {
  Outcome outcome = Outcome::kOk;
  double latency_ms = 0.0;  ///< due (or call start) to resolution
  double limit_ms = 0.0;    ///< the frame's latency limit
};

struct OutcomeCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;          ///< every outcome other than kOk
  std::uint64_t deadline_missed = 0; ///< failed, or later than the limit

  [[nodiscard]] double failed_ratio() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
  [[nodiscard]] double deadline_miss_ratio() const {
    return attempted > 0 ? static_cast<double>(deadline_missed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

/// Counts outcomes against each frame's latency limit. A frame that failed,
/// was shed, timed out or failed its output check counts as failed AND as a
/// deadline miss, whatever its latency; an ok frame misses only when it
/// resolved later than its limit after it was due.
[[nodiscard]] inline OutcomeCounts count_outcomes(
    const std::vector<FrameOutcome>& frames) {
  OutcomeCounts counts;
  for (const FrameOutcome& frame : frames) {
    ++counts.attempted;
    if (frame.outcome != Outcome::kOk) {
      ++counts.failed;
      ++counts.deadline_missed;
    } else if (frame.latency_ms > frame.limit_ms) {
      ++counts.deadline_missed;
    }
  }
  return counts;
}

/// A closed time interval [begin, end] in any consistent unit.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Self time of a span: its duration minus the part of its interval that
/// the union of its children covers. Children may overlap each other (they
/// run on several threads) and may stick out of the parent; only their
/// clipped union is subtracted.
[[nodiscard]] inline double self_time(Interval parent,
                                      std::vector<Interval> children) {
  const double duration = std::max(0.0, parent.end - parent.begin);
  for (Interval& child : children) {
    child.begin = std::max(child.begin, parent.begin);
    child.end = std::min(child.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double reach = parent.begin;  // end of the union so far
  for (const Interval& child : children) {
    if (child.end <= child.begin) {
      continue;
    }
    const double from = std::max(child.begin, reach);
    if (child.end > from) {
      covered += child.end - from;
      reach = child.end;
    }
  }
  return duration - covered;
}

}  // namespace perfbench

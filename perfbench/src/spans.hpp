#pragma once
// In-memory spans recorded by the benchmark around public library calls,
// and the motion-estimator decorator that times every estimate() call.
//
// Nothing here reaches into src/: the decorator is handed to the encoder (or
// session) like any other me::MotionEstimator and forwards every call to the
// estimator it wraps. The encoder clones it once per pipeline worker; each
// clone records into its own vector (one thread drives a clone at a time)
// and the pipeline drains the clones back into the primary through
// merge_stats() after every frame, so after a drain the primary holds every
// span and call of the stream.

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "me/estimator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the common time base of every span).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Small stable id of the calling thread (0 for the first thread that asks).
[[nodiscard]] std::uint32_t thread_slot();

enum class SpanKind : std::uint8_t { kFrame, kEstimate, kDecode };

[[nodiscard]] const char* span_kind_name(SpanKind kind);

/// One recorded interval. A frame span is keyed by (stream, frame); its
/// estimate and decode spans carry the same key, which is what makes them
/// its children.
struct Span {
  SpanKind kind = SpanKind::kFrame;
  std::uint32_t thread = 0;
  std::uint32_t stream = 0;
  std::int32_t frame = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Decorator that times every estimate() of the estimator it wraps.
class TimedEstimator final : public acbm::me::MotionEstimator {
 public:
  TimedEstimator(std::unique_ptr<acbm::me::MotionEstimator> inner,
                 std::uint32_t stream)
      : inner_(std::move(inner)), stream_(stream) {
    if (!inner_) {
      throw std::invalid_argument("TimedEstimator needs an estimator");
    }
  }

  acbm::me::EstimateResult estimate(
      const acbm::me::BlockContext& ctx) override {
    const std::int64_t begin = now_ns();
    const acbm::me::EstimateResult result = inner_->estimate(ctx);
    const std::int64_t end = now_ns();
    spans_.push_back(Span{SpanKind::kEstimate, thread_slot(), stream_,
                          ctx.frame, begin, end});
    positions_ += result.positions;
    return result;
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

  void reset() override {
    inner_->reset();
    spans_.clear();
    positions_ = 0;
  }

  [[nodiscard]] std::unique_ptr<acbm::me::MotionEstimator> clone()
      const override {
    return std::make_unique<TimedEstimator>(inner_->clone(), stream_);
  }

  void merge_stats(acbm::me::MotionEstimator& worker) override {
    auto* other = dynamic_cast<TimedEstimator*>(&worker);
    if (other == nullptr) {
      throw std::invalid_argument("TimedEstimator merges only its clones");
    }
    inner_->merge_stats(*other->inner_);
    spans_.insert(spans_.end(), other->spans_.begin(), other->spans_.end());
    positions_ += other->positions_;
    other->spans_.clear();
    other->positions_ = 0;
  }

  [[nodiscard]] acbm::me::MotionEstimator& inner() { return *inner_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t positions() const { return positions_; }

 private:
  std::unique_ptr<acbm::me::MotionEstimator> inner_;
  std::uint32_t stream_;
  std::vector<Span> spans_;
  std::uint64_t positions_ = 0;
};

/// Writes `spans` as Chrome trace-event JSON (loads in Perfetto). Frame,
/// decode and the first `max_estimates` estimate spans (by start time) are
/// written; the count left out is recorded in the file's metadata.
/// Times are microseconds from `origin_ns`.
void write_spans_json(const std::string& path, std::vector<Span> spans,
                      std::int64_t origin_ns, std::size_t max_estimates);

}  // namespace perfbench

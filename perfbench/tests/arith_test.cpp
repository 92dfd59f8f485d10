// Tests of the benchmark's own arithmetic (perfbench/src/arith.hpp):
// nearest-rank percentiles and the ten-samples-beyond rule, open-loop
// latency from due time, failure and deadline-miss counting, and span self
// time. Dependency-free so it builds wherever the benchmark builds:
//
//   cmake --build .bench_build/perfbench --target perfbench_arith_test
//   ctest --test-dir .bench_build/perfbench
//
// (python3 perfbench/run.py --self-test does both.)

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "arith.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) {  // unsorted on purpose
    values.push_back(i);
  }
  return values;
}

void nearest_rank_percentiles() {
  using perfbench::nearest_rank;
  using perfbench::percentile;
  CHECK(nearest_rank(1000, 0.99) == 990);  // 0.99 * 1000 is whole
  CHECK(nearest_rank(1000, 0.50) == 500);
  CHECK(nearest_rank(1001, 0.99) == 991);  // ceil(990.99)
  CHECK(nearest_rank(20, 0.50) == 10);
  CHECK(nearest_rank(5, 1.0) == 5);
  CHECK(near(percentile(one_to(1000), 0.99), 990.0));
  CHECK(near(percentile(one_to(1000), 0.50), 500.0));
  CHECK(near(percentile(one_to(21), 0.50), 11.0));
  // Nearest rank never interpolates: the result is always a sample.
  CHECK(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                         16, 17, 18, 19, 100},
                        0.50),
             10.0));
  CHECK(throws([] { (void)nearest_rank(0, 0.5); }));
  CHECK(throws([] { (void)nearest_rank(10, 0.0); }));
}

void ten_samples_beyond_rule() {
  using perfbench::percentile;
  using perfbench::percentile_reportable;
  using perfbench::samples_beyond;
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(samples_beyond(999, 0.99) == 9);
  CHECK(percentile_reportable(1000, 0.99));
  CHECK(!percentile_reportable(999, 0.99));
  CHECK(percentile_reportable(20, 0.50));
  CHECK(!percentile_reportable(19, 0.50));
  CHECK(!percentile_reportable(0, 0.50));
  CHECK(throws([] { (void)percentile(one_to(999), 0.99); }));
  CHECK(!throws([] { (void)percentile(one_to(1000), 0.99); }));
}

/// A FIFO server fed on a fixed schedule: frame i is due at i * period,
/// its submit call takes `submit_ms` (or `stall_ms` for frame `stalled`),
/// and the server needs `service_ms` per frame. Returns each frame's
/// resolution time; `submitted` receives when each submit call began.
std::vector<double> simulate(int frames, double period, double submit_ms,
                             int stalled, double stall_ms, double service_ms,
                             std::vector<double>& submitted) {
  std::vector<double> resolved;
  double generator = 0.0;  // when the generator is free again
  double server = 0.0;     // when the server is free again
  for (int i = 0; i < frames; ++i) {
    const double due = i * period;
    const double begin = std::max(due, generator);
    generator = begin + (i == stalled ? stall_ms : submit_ms);
    submitted.push_back(begin);
    server = std::max(server, generator) + service_ms;
    resolved.push_back(server);
  }
  return resolved;
}

void open_loop_latency_from_due_time() {
  using perfbench::open_loop_latency_ms;
  CHECK(near(open_loop_latency_ms(100.0, 130.0), 30.0));
  // Frames every 10 ms, 1 ms submits, 5 ms of service. Frame 3's submit
  // stalls for 45 ms, so frames 4..7 are submitted late.
  std::vector<double> submitted;
  const std::vector<double> resolved =
      simulate(20, 10.0, 1.0, 3, 45.0, 5.0, submitted);
  for (int i = 0; i < 3; ++i) {
    CHECK(near(open_loop_latency_ms(i * 10.0, resolved[i]), 6.0));
  }
  // From the due time the stall is charged to every frame queued behind
  // it; measured from the late submit the same frames look healthy.
  for (int i = 4; i <= 7; ++i) {
    const double from_due = open_loop_latency_ms(i * 10.0, resolved[i]);
    const double from_submit = resolved[i] - submitted[i];
    CHECK(from_due > 6.0);
    CHECK(from_due > from_submit);
  }
  // Frame 4 was due at 40, submitted at 75 once the stall ended, and
  // resolved at 85 behind frame 3.
  CHECK(near(submitted[4], 75.0));
  CHECK(near(open_loop_latency_ms(40.0, resolved[4]), 45.0));
  CHECK(near(resolved[4] - submitted[4], 10.0));
  // Once the backlog drains, latency returns to normal.
  CHECK(near(open_loop_latency_ms(190.0, resolved[19]), 6.0));
}

void failure_and_deadline_counting() {
  using perfbench::count_outcomes;
  using perfbench::FrameOutcome;
  using perfbench::Outcome;
  const double limit = 66.7;
  const std::vector<FrameOutcome> frames = {
      {Outcome::kOk, 10.0, limit},        // on time
      {Outcome::kOk, 66.7, limit},        // exactly at the limit: met
      {Outcome::kOk, 80.0, limit},        // late: a miss, not a failure
      {Outcome::kShed, 0.0, limit},       // shed: failure and miss
      {Outcome::kTimedOut, 1.0, limit},   // timed out: failure and miss
      {Outcome::kFailed, 5.0, limit},     // encode error: failure and miss
      {Outcome::kMismatch, 20.0, limit},  // failed the output check
      {Outcome::kOk, 30.0, 20.0},         // per-frame limits apply
  };
  const perfbench::OutcomeCounts counts = count_outcomes(frames);
  CHECK(counts.attempted == 8);
  CHECK(counts.failed == 4);
  CHECK(counts.deadline_missed == 6);
  CHECK(near(counts.failed_ratio(), 0.5));
  CHECK(near(counts.deadline_miss_ratio(), 0.75));
  const perfbench::OutcomeCounts none = count_outcomes({});
  CHECK(none.attempted == 0 && near(none.failed_ratio(), 0.0));
}

void self_time_subtraction() {
  using perfbench::Interval;
  using perfbench::self_time;
  CHECK(near(self_time({0, 10}, {}), 10.0));
  CHECK(near(self_time({0, 10}, {{1, 3}, {5, 6}}), 7.0));
  // Overlapping children (two worker threads) count once.
  CHECK(near(self_time({0, 10}, {{1, 5}, {3, 7}}), 4.0));
  // Nested and unsorted children.
  CHECK(near(self_time({0, 10}, {{6, 9}, {2, 8}, {3, 4}}), 3.0));
  // Children are clipped to the parent; one wholly outside adds nothing.
  CHECK(near(self_time({0, 10}, {{-5, 2}, {8, 15}, {20, 30}}), 6.0));
  // Fully covered.
  CHECK(near(self_time({0, 10}, {{0, 10}, {2, 3}}), 0.0));
}

}  // namespace

int main() {
  nearest_rank_percentiles();
  ten_samples_beyond_rule();
  open_loop_latency_from_due_time();
  failure_and_deadline_counting();
  self_time_subtraction();
  if (failures > 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench arithmetic: all checks passed\n");
  return 0;
}

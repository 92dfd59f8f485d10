#pragma once
// Descriptive statistics used by the characterization harness (Fig. 4
// scatter summaries) and the complexity accounting (Table 1 averages).

#include <cstddef>
#include <vector>

namespace acbm::util {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// O(1) memory; suitable for per-macroblock counters over whole sequences.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance (division by n). Zero for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel-safe combine).
  void merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores samples and answers arbitrary quantile queries. Used where the
/// paper reports distributions (Fig. 4 scatter clouds) rather than moments.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  /// Linear-interpolated quantile, q in [0,1]. Sorts lazily.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace acbm::util

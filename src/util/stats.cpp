#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace acbm::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double SampleSet::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : samples_) {
    s += x;
  }
  return s / static_cast<double>(samples_.size());
}

double SampleSet::quantile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace acbm::util

// Online statistics used by the evaluation harness: Welford mean/variance
// and exact percentiles over retained samples.
#pragma once

#include <cstddef>
#include <vector>

namespace drowsy::util {

/// Numerically stable streaming mean / variance (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< population variance
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Retains every sample; answers arbitrary quantiles exactly.
/// Suitable for per-experiment latency distributions (≤ a few million
/// samples), not for unbounded telemetry.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Quantile q in [0, 1] by linear interpolation; 0.5 is the median.
  [[nodiscard]] double quantile(double q) const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

}  // namespace drowsy::util

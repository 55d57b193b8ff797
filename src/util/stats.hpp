// Online statistics used by the evaluation harness: Welford mean/variance,
// exact percentiles over retained samples, and fixed-width histograms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace drowsy::util {

/// Numerically stable streaming mean / variance (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other);

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
  void add(double x) { samples_.push_back(x); }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Quantile q in [0, 1] by linear interpolation; 0.5 is the median.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double bucket_low(std::size_t i) const;

  /// Multi-line ASCII rendering (for bench output).
  [[nodiscard]] std::string to_string(std::size_t bar_width = 40) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace drowsy::util

#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace drowsy::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(n_ + other.n_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / total;
  mean_ = (mean_ * static_cast<double>(n_) + other.mean_ * static_cast<double>(other.n_)) /
          total;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::quantile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double acc = 0.0;
  for (double x : samples_) acc += x;
  return acc / static_cast<double>(samples_.size());
}

double SampleSet::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)), counts_(buckets, 0) {
  assert(hi > lo && buckets > 0);
}

void Histogram::add(double x) {
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

double Histogram::bucket_low(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

std::string Histogram::to_string(std::size_t bar_width) const {
  std::string out;
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t bar =
        static_cast<std::size_t>(static_cast<double>(counts_[i]) / static_cast<double>(peak) *
                                 static_cast<double>(bar_width));
    std::snprintf(line, sizeof(line), "[%10.3f, %10.3f) %8llu |", bucket_low(i),
                  bucket_low(i) + width_, static_cast<unsigned long long>(counts_[i]));
    out += line;
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

}  // namespace drowsy::util

// Small numeric helpers shared across the library: the logistic damping
// used by the idleness-model update (paper eq. 4), simplex projection for
// the learned time-scale weights (paper §III-C), and Student-t statistics.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace drowsy::util {

/// Clamp x into [lo, hi].
[[nodiscard]] double clamp(double x, double lo, double hi);

/// Logistic damping coefficient of paper eq. (4):
///   u(x) = 1 / (1 + exp(alpha * (x - beta)))
/// For the idleness model, x is |SI*|, alpha the decrease speed and beta
/// the "extreme value" threshold.
[[nodiscard]] double logistic_damping(double x, double alpha, double beta);

/// Dot product of two equally-sized vectors, summed left to right from
/// +0.  Inline so the idleness model's 4-element products unroll.
[[nodiscard]] inline double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

namespace detail {

/// Sort four values descending with the optimal 5-comparator network.
/// Ties may land in another order than std::sort's, which cannot change
/// the projection: equal doubles are the same value except ±0, and a
/// signed zero cannot change a cumsum that starts at +0.
inline void sort4_descending(std::array<double, 4>& u) {
  const auto order = [&u](std::size_t i, std::size_t j) {
    const double a = u[i];
    const double b = u[j];
    u[i] = b > a ? b : a;
    u[j] = a < b ? a : b;
  };
  order(0, 1);
  order(2, 3);
  order(0, 2);
  order(1, 3);
  order(1, 2);
}

/// θ of the projection for `u` sorted descending: the candidate
/// (sum_{i<=k} u_i - 1)/k at the largest k with u_k - candidate > 0.
inline double simplex_threshold(std::span<const double> u) {
  double cumsum = 0.0;
  double theta = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    cumsum += u[i];
    const double candidate = (cumsum - 1.0) / static_cast<double>(i + 1);
    theta = u[i] - candidate > 0.0 ? candidate : theta;
  }
  return theta;
}

}  // namespace detail

/// Project v in place onto the probability simplex
/// { w : w_i >= 0, sum w_i = 1 } (Duchi et al. 2008, O(n log n)).
/// Inline, like dot(), so the idleness model's weight step keeps its four
/// weights in registers.
inline void project_to_simplex(std::span<double> v) {
  // Sort a copy descending, find θ, then shift and clip.  Four weights
  // take an allocation-free sorting network.
  double theta = 0.0;
  if (v.size() == 4) {
    std::array<double, 4> u{v[0], v[1], v[2], v[3]};
    detail::sort4_descending(u);
    theta = detail::simplex_threshold(u);
  } else {
    std::vector<double> u(v.begin(), v.end());
    std::sort(u.begin(), u.end(), std::greater<>());
    theta = detail::simplex_threshold(u);
  }
  for (auto& x : v) x = std::max(x - theta, 0.0);
}

/// Regularized incomplete beta function I_x(a, b) for a, b > 0 and
/// x in [0, 1], by the standard continued-fraction expansion (Lentz's
/// method).  The basis for Student-t probabilities below.
[[nodiscard]] double incomplete_beta(double a, double b, double x);

/// Two-sided Student-t p-value: P(|T_df| >= |t|) for df > 0.
/// Non-integer df is supported (Welch–Satterthwaite produces them).
[[nodiscard]] double students_t_two_sided_p(double t, double df);

/// Two-sided critical value: the t with students_t_two_sided_p(t, df) == p
/// (e.g. p = 0.05 gives the 97.5th percentile).  Solved by bisection;
/// plenty for confidence intervals over replicate counts.
[[nodiscard]] double students_t_critical(double p, double df);

}  // namespace drowsy::util

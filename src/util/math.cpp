#include "util/math.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace drowsy::util {

double clamp(double x, double lo, double hi) { return std::min(std::max(x, lo), hi); }

namespace {

/// Continued fraction for the incomplete beta (Lentz's method; the
/// classic betacf).  Converges quickly for x < (a + 1) / (a + b + 2),
/// which incomplete_beta() guarantees via the symmetry relation.
double beta_continued_fraction(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEpsilon = 1e-15;
  constexpr double kTiny = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  assert(a > 0.0 && b > 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_front = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                           a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(log_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

double students_t_two_sided_p(double t, double df) {
  assert(df > 0.0);
  if (!std::isfinite(t)) return 0.0;
  // P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2).
  const double x = df / (df + t * t);
  return clamp(incomplete_beta(df / 2.0, 0.5, x), 0.0, 1.0);
}

double students_t_critical(double p, double df) {
  assert(p > 0.0 && p < 1.0 && df > 0.0);
  // p is monotonically decreasing in t; bisect on [0, hi].
  double lo = 0.0;
  double hi = 1.0;
  while (students_t_two_sided_p(hi, df) > p && hi < 1e8) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (students_t_two_sided_p(mid, df) > p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * (1.0 + hi)) break;
  }
  return 0.5 * (lo + hi);
}

double logistic_damping(double x, double alpha, double beta) {
  return 1.0 / (1.0 + std::exp(alpha * (x - beta)));
}

}  // namespace drowsy::util

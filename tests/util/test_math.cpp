#include "util/math.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "util/rng.hpp"

namespace u = drowsy::util;

TEST(Math, Clamp) {
  EXPECT_EQ(u::clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_EQ(u::clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(u::clamp(2.0, 0.0, 1.0), 1.0);
}

TEST(Math, LogisticDampingPaperValues) {
  // Paper eq. (4) with alpha=0.7, beta=0.5: u is a decreasing function of
  // |SI| crossing 1/2 at |SI| = beta.
  const double alpha = 0.7, beta = 0.5;
  EXPECT_NEAR(u::logistic_damping(beta, alpha, beta), 0.5, 1e-12);
  EXPECT_GT(u::logistic_damping(0.0, alpha, beta), 0.5);
  EXPECT_LT(u::logistic_damping(1.0, alpha, beta), 0.5);
  // Monotone decreasing.
  double prev = 2.0;
  for (double x = 0.0; x <= 1.0; x += 0.1) {
    const double v = u::logistic_damping(x, alpha, beta);
    EXPECT_LT(v, prev);
    prev = v;
  }
}

TEST(Math, Dot) {
  const std::array<double, 3> a{1.0, 2.0, 3.0};
  const std::array<double, 3> b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(u::dot(a, b), 4.0 - 10.0 + 18.0);
}

TEST(Math, SimplexProjectionAlreadyOnSimplex) {
  std::array<double, 4> w{0.25, 0.25, 0.25, 0.25};
  u::project_to_simplex(w);
  for (double x : w) EXPECT_NEAR(x, 0.25, 1e-12);
}

TEST(Math, SimplexProjectionClipsNegatives) {
  std::array<double, 3> w{1.5, -0.2, 0.1};
  u::project_to_simplex(w);
  double sum = 0.0;
  for (double x : w) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // The dominant coordinate stays dominant.
  EXPECT_GT(w[0], w[1]);
  EXPECT_GT(w[0], w[2]);
}

class SimplexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexProperty, RandomVectorsProjectOntoSimplex) {
  u::Rng rng(GetParam());
  std::vector<double> v(4);
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  u::project_to_simplex(v);
  double sum = 0.0;
  for (double x : v) {
    EXPECT_GE(x, -1e-12);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(SimplexProperty, ProjectionIsIdempotent) {
  u::Rng rng(GetParam() ^ 0xABCD);
  std::vector<double> v(5);
  for (auto& x : v) x = rng.uniform(-1.0, 3.0);
  u::project_to_simplex(v);
  std::vector<double> once = v;
  u::project_to_simplex(v);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], once[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(Math, IncompleteBetaKnownValues) {
  // I_x(1, 1) is the identity; I_x(a, b) + I_{1-x}(b, a) = 1.
  EXPECT_NEAR(u::incomplete_beta(1.0, 1.0, 0.3), 0.3, 1e-12);
  EXPECT_NEAR(u::incomplete_beta(2.0, 2.0, 0.5), 0.5, 1e-12);  // symmetric median
  EXPECT_NEAR(u::incomplete_beta(2.5, 1.5, 0.4) + u::incomplete_beta(1.5, 2.5, 0.6), 1.0,
              1e-12);
  // I_x(2, 2) = x^2 (3 - 2x).
  EXPECT_NEAR(u::incomplete_beta(2.0, 2.0, 0.25), 0.25 * 0.25 * 2.5, 1e-12);
  EXPECT_EQ(u::incomplete_beta(3.0, 4.0, 0.0), 0.0);
  EXPECT_EQ(u::incomplete_beta(3.0, 4.0, 1.0), 1.0);
}

TEST(Math, StudentsTMatchesClosedForms) {
  // df = 1 is the Cauchy distribution: P(|T| >= t) = 1 - (2/pi) atan(t).
  for (const double t : {0.5, 1.0, 2.0, 12.7}) {
    EXPECT_NEAR(u::students_t_two_sided_p(t, 1.0), 1.0 - 2.0 / M_PI * std::atan(t), 1e-10)
        << t;
  }
  // df = 2: P(|T| >= t) = 1 - t / sqrt(2 + t^2).
  for (const double t : {0.5, 1.0, 2.0, 4.3}) {
    EXPECT_NEAR(u::students_t_two_sided_p(t, 2.0), 1.0 - t / std::sqrt(2.0 + t * t), 1e-10)
        << t;
  }
  // Symmetric in t; p(0) = 1; p decreases with |t|.
  EXPECT_DOUBLE_EQ(u::students_t_two_sided_p(-2.0, 5.0), u::students_t_two_sided_p(2.0, 5.0));
  EXPECT_DOUBLE_EQ(u::students_t_two_sided_p(0.0, 5.0), 1.0);
  EXPECT_GT(u::students_t_two_sided_p(1.0, 5.0), u::students_t_two_sided_p(2.0, 5.0));
}

TEST(Math, StudentsTClassicTableValues) {
  // t-table landmarks: t_{0.975, 8} = 2.306, t_{0.975, inf->large} -> 1.960.
  EXPECT_NEAR(u::students_t_critical(0.05, 8.0), 2.306, 1e-3);
  EXPECT_NEAR(u::students_t_critical(0.05, 1e6), 1.95996, 1e-3);
  EXPECT_NEAR(u::students_t_critical(0.05, 1.0), 12.706, 1e-2);
  // The critical value inverts the p-value.
  const double t = u::students_t_critical(0.05, 7.0);
  EXPECT_NEAR(u::students_t_two_sided_p(t, 7.0), 0.05, 1e-9);
}

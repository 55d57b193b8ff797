// Bitwise oracle for the idleness model's hourly update and for model
// pretraining.  `ref` below is a frozen copy of the update as it stood
// before the weight step was made allocation-free: util::dot, the
// std::vector + std::sort simplex projection, IdlenessModel::observe_hour,
// learn_weights and save.  It must not be tidied or sped up; every
// production change must keep matching it bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "core/idleness_model.hpp"
#include "trace/generators.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace c = drowsy::core;
namespace s = drowsy::sim;
namespace n = drowsy::net;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace ref {

double dot(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void project_to_simplex(std::span<double> v) {
  std::vector<double> u(v.begin(), v.end());
  std::sort(u.begin(), u.end(), std::greater<>());
  double cumsum = 0.0;
  double theta = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    cumsum += u[i];
    const double candidate = (cumsum - 1.0) / static_cast<double>(i + 1);
    if (u[i] - candidate > 0.0) theta = candidate;
  }
  for (auto& x : v) x = std::max(x - theta, 0.0);
}

double clamp(double x, double lo, double hi) { return std::min(std::max(x, lo), hi); }

double logistic_damping(double x, double alpha, double beta) {
  return 1.0 / (1.0 + std::exp(alpha * (x - beta)));
}

struct Model {
  explicit Model(c::IdlenessModelConfig cfg = {}) : config(cfg) { weights.fill(1.0 / 4.0); }

  [[nodiscard]] std::array<std::size_t, 4> slots(const u::CalendarTime& cal) const {
    return {static_cast<std::size_t>(cal.hour),
            static_cast<std::size_t>(cal.day_of_week * 24 + cal.hour),
            static_cast<std::size_t>(cal.day_of_month * 24 + cal.hour),
            static_cast<std::size_t>(cal.hour_of_year)};
  }
  [[nodiscard]] std::array<double, 4> si(const u::CalendarTime& cal) const {
    const auto idx = slots(cal);
    return {day[idx[0]], week[idx[1]], month[idx[2]], year[idx[3]]};
  }
  [[nodiscard]] double ip(const u::CalendarTime& cal) const { return dot(weights, si(cal)); }
  [[nodiscard]] double mean_active_level() const {
    return active_hours == 0 ? 0.0 : active_level_sum / static_cast<double>(active_hours);
  }

  void observe_hour(const u::CalendarTime& cal, double activity_level) {
    const auto idx = slots(cal);
    const auto si_before = si(cal);
    const bool was_idle = activity_level == 0.0;
    if (!was_idle) {
      active_level_sum += activity_level;
      ++active_hours;
    }
    const double a = was_idle ? mean_active_level() : activity_level;
    const double a_star = config.sigma * a;
    std::array<double*, 4> ptrs = {&day[idx[0]], &week[idx[1]], &month[idx[2]], &year[idx[3]]};
    for (double* p : ptrs) {
      const double damping = logistic_damping(std::abs(*p), config.alpha, config.beta);
      const double v = a_star * damping;
      *p = clamp(was_idle ? *p + v : *p - v, -1.0, 1.0);
    }
    if (config.learn_weights) learn_weights(si_before, si(cal));
    ++observed_hours;
  }

  void learn_weights(const std::array<double, 4>& si_before,
                     const std::array<double, 4>& si_after) {
    const double ip_prime = dot(weights, si_after);
    const double denom = dot(si_before, si_before);
    if (denom < 1e-30) return;
    for (std::size_t step = 0; step < config.weight_descent_steps; ++step) {
      const double e = ip_prime - dot(weights, si_before);
      if (std::abs(e) < 1e-15) break;
      for (std::size_t i = 0; i < 4; ++i) {
        weights[i] += config.weight_learning_rate * e * si_before[i] / denom;
      }
      project_to_simplex(weights);
    }
  }

  [[nodiscard]] std::string save() const {
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "drowsy-im" << ' ' << 1 << '\n';
    out << active_level_sum << ' ' << active_hours << ' ' << observed_hours << '\n';
    for (double w : weights) out << w << ' ';
    out << '\n';
    for (const auto* block : {&day, &week, &month, &year}) {
      out << block->size() << '\n';
      for (double v : *block) out << v << ' ';
      out << '\n';
    }
    return out.str();
  }

  c::IdlenessModelConfig config;
  std::vector<double> day = std::vector<double>(24, 0.0);
  std::vector<double> week = std::vector<double>(24 * 7, 0.0);
  std::vector<double> month = std::vector<double>(24 * 31, 0.0);
  std::vector<double> year = std::vector<double>(24 * 365, 0.0);
  std::array<double, 4> weights{};
  double active_level_sum = 0.0;
  std::uint64_t active_hours = 0;
  std::uint64_t observed_hours = 0;
};

}  // namespace ref

namespace {

constexpr double kNoiseFloor = drowsy::kern::kNoiseFloor;

u::CalendarTime cal(std::int64_t hour) { return u::calendar_of(hour * u::kMsPerHour); }

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::string saved(const c::IdlenessModel& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

/// Raw activity: idle hours, hours a hair above and below the noise
/// floor, and busy hours.
std::vector<double> mixed_trace(std::uint64_t seed, std::size_t hours) {
  u::Rng rng(seed);
  std::vector<double> out(hours);
  for (double& a : out) {
    const double pick = rng.uniform();
    if (pick < 0.4) {
      a = 0.0;
    } else if (pick < 0.5) {
      a = rng.bernoulli(0.5) ? std::nextafter(kNoiseFloor, 1.0) : kNoiseFloor;
    } else if (pick < 0.6) {
      a = kNoiseFloor + rng.uniform(-1e-4, 1e-4);
    } else {
      a = rng.uniform(0.0, 1.0);
    }
  }
  return out;
}

double filtered(double raw) { return raw > kNoiseFloor ? raw : 0.0; }

/// Hours that ended with the frozen model's weights clipped to zero: at
/// least one (`clipped`), or all but one, i.e. on a simplex vertex
/// (`vertex`).
struct BoundaryHours {
  std::size_t clipped = 0;
  std::size_t vertex = 0;
};

/// Feeds `trace` (noise-filtered, wrapping) to a production model and the
/// frozen one for `hours` hours, comparing the next hour's IP bitwise
/// after every update and the saved state at the end.  Before hour
/// `restore_at` the production model is replaced by a save()/load()
/// round trip of itself, under the same config.
BoundaryHours expect_bitwise(c::IdlenessModel model, ref::Model oracle,
                             const std::vector<double>& trace, std::size_t hours,
                             std::size_t restore_at = std::numeric_limits<std::size_t>::max()) {
  BoundaryHours boundary;
  for (std::size_t h = 0; h < hours; ++h) {
    if (h == restore_at) {
      std::istringstream in(saved(model));
      model = c::IdlenessModel::load(in, oracle.config);
    }
    const auto when = cal(static_cast<std::int64_t>(h));
    const double a = filtered(trace[h % trace.size()]);
    model.observe_hour(when, a);
    oracle.observe_hour(when, a);
    const auto next = cal(static_cast<std::int64_t>(h + 1));
    if (bits(model.ip(next).raw) != bits(oracle.ip(next))) {
      ADD_FAILURE() << "IP differs after hour " << h << ": " << model.ip(next).raw << " vs "
                    << oracle.ip(next);
      return boundary;
    }
    const auto zeros = std::count(oracle.weights.begin(), oracle.weights.end(), 0.0);
    if (zeros > 0) ++boundary.clipped;
    if (zeros == 3) ++boundary.vertex;
  }
  EXPECT_EQ(saved(model), oracle.save());
  return boundary;
}

/// The same, from fresh models.
BoundaryHours expect_bitwise(const std::vector<double>& trace, std::size_t hours,
                             c::IdlenessModelConfig cfg,
                             std::size_t restore_at = std::numeric_limits<std::size_t>::max()) {
  return expect_bitwise(c::IdlenessModel(cfg), ref::Model(cfg), trace, hours, restore_at);
}

/// The same, from a crafted state: the frozen model starts as `start`
/// and the production one loads its saved text.
void expect_bitwise_from(const ref::Model& start, const std::vector<double>& trace,
                         std::size_t hours) {
  std::istringstream in(start.save());
  expect_bitwise(c::IdlenessModel::load(in, start.config), start, trace, hours);
}

c::IdlenessModelConfig with_steps(std::size_t steps) {
  c::IdlenessModelConfig cfg;
  cfg.weight_descent_steps = steps;
  return cfg;
}

}  // namespace

TEST(IdlenessOracle, ProjectionMatchesFrozenSort) {
  u::Rng rng(7);
  std::vector<std::array<double, 4>> inputs = {
      {0.25, 0.25, 0.25, 0.25},       // a fresh model's tied weights
      {0.25, 0.25, 0.25 + 1e-17, 0.25},
      {0.0, -0.0, 0.5, 0.5},          // signed zeros tie
      {-0.0, 0.0, -0.0, 1.0},
      {1.5, -0.2, 0.1, 0.1},
      {-1.0, -1.0, -1.0, -1.0},
  };
  for (int i = 0; i < 20000; ++i) {
    std::array<double, 4> v{};
    for (double& x : v) x = rng.uniform(-2.0, 2.0);
    if (i % 3 == 0) v[rng.uniform_int(0, 3)] = v[rng.uniform_int(0, 3)];  // a tie
    if (i % 5 == 0) {
      for (double& x : v) x = 0.25 + rng.uniform(-1e-6, 1e-6);  // near the fresh weights
    }
    inputs.push_back(v);
  }
  for (const auto& in : inputs) {
    std::array<double, 4> got = in;
    std::array<double, 4> want = in;
    u::project_to_simplex(got);
    ref::project_to_simplex(want);
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_EQ(bits(got[i]), bits(want[i]))
          << "input " << in[0] << ' ' << in[1] << ' ' << in[2] << ' ' << in[3];
    }
  }
}

TEST(IdlenessOracle, MixedTracesAtEveryStepCount) {
  std::size_t clipped_hours = 0;
  for (const std::size_t steps : {0u, 1u, 4u, 8u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << "steps " << steps << " seed " << seed);
      clipped_hours +=
          expect_bitwise(mixed_trace(seed, 24 * 365), 24 * 365, with_steps(steps)).clipped;
    }
  }
  // The frozen update must have been driven onto the simplex boundary.
  EXPECT_GT(clipped_hours, 0u);
}

TEST(IdlenessOracle, FixedWeights) {
  c::IdlenessModelConfig cfg;
  cfg.learn_weights = false;
  expect_bitwise(mixed_trace(11, 24 * 365), 24 * 365, cfg);
}

TEST(IdlenessOracle, AllIdleNeverLearns) {
  // No active history: the scores stay at zero, so every hour takes the
  // denom < 1e-30 early return with the tied fresh weights.
  expect_bitwise(std::vector<double>(24, 0.0), 24 * 60, {});
  expect_bitwise(std::vector<double>(24, kNoiseFloor), 24 * 60, {});
}

TEST(IdlenessOracle, AlwaysActive) {
  u::Rng rng(5);
  std::vector<double> busy(24 * 7);
  for (double& a : busy) a = rng.uniform(0.01, 1.0);
  for (const std::size_t steps : {1u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "steps " << steps);
    expect_bitwise(busy, 24 * 365 * 2, with_steps(steps));
  }
}

// A periodic VM drives the weights onto a simplex vertex, where one
// descent step leaves their bits unchanged: the fixed-point exit fires on
// most of the two years' hours.
TEST(IdlenessOracle, PeriodicTracesSitOnAVertex) {
  t::GenOptions o;
  o.years = 1;
  const std::pair<const char*, t::ActivityTrace> traces[] = {
      {"office_hours", t::office_hours(o)}, {"daily_backup", t::daily_backup(o)}};
  for (const auto& [name, trace] : traces) {
    for (const std::size_t steps : {1u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message() << name << " steps " << steps);
      const std::size_t hours = 2 * 24 * 365;
      const auto boundary = expect_bitwise(trace.hours(), hours, with_steps(steps));
      EXPECT_GT(boundary.vertex, hours / 2);
    }
  }
}

TEST(IdlenessOracle, FullLearningRate) {
  c::IdlenessModelConfig cfg = with_steps(8);
  cfg.weight_learning_rate = 1.0;
  t::GenOptions o;
  o.years = 1;
  expect_bitwise(mixed_trace(13, 24 * 365), 24 * 365, cfg);
  expect_bitwise(t::office_hours(o).hours(), 2 * 24 * 365, cfg);
}

// u(0) is precomputed per model; it must come from the model's own
// alpha and beta.
TEST(IdlenessOracle, NonDefaultDamping) {
  c::IdlenessModelConfig cfg;
  cfg.alpha = 1.3;
  cfg.beta = 0.2;
  t::GenOptions o;
  o.years = 1;
  expect_bitwise(mixed_trace(17, 24 * 365), 24 * 365, cfg);
  expect_bitwise(t::daily_backup(o).hours(), 2 * 24 * 365, cfg);
}

TEST(IdlenessOracle, RestoredMidTraceMatchesOracleContinuing) {
  c::IdlenessModelConfig damped;
  damped.alpha = 1.3;
  damped.beta = 0.2;
  t::GenOptions o;
  o.years = 1;
  for (const auto& cfg : {with_steps(4), damped}) {
    SCOPED_TRACE(testing::Message() << "alpha " << cfg.alpha);
    expect_bitwise(mixed_trace(19, 24 * 365), 24 * 365, cfg, 24 * 200 + 7);
    expect_bitwise(t::office_hours(o).hours(), 2 * 24 * 365, cfg, 24 * 365 + 13);
  }
}

// A file saved with fewer digits restores weights that sum to 1 only
// within load()'s 1e-9.  At learning rate 0 the step leaves them as they
// are, yet the projection after it still moves them onto the simplex;
// an exit that compared before projecting would skip that.
TEST(IdlenessOracle, ZeroRateStillProjectsRestoredWeights) {
  c::IdlenessModelConfig cfg;
  cfg.weight_learning_rate = 0.0;
  ref::Model start(cfg);
  start.weights = {0.5, 0.5 + 1e-10, 0.0, 0.0};
  expect_bitwise_from(start, mixed_trace(23, 24 * 30), 24 * 30);
}

// Weights (0.5, 0.5, 0, 0) over scores (0.25, -0.25, 0, 0): the step
// moves the two weights by exactly opposite amounts, so the stepped
// weights already lie on the simplex and the projection leaves them
// alone, but the descent has not converged.  An exit that compared the
// projected weights with the stepped ones would stop here.
TEST(IdlenessOracle, MirroredStepLandsOnTheSimplex) {
  ref::Model start(with_steps(4));
  start.weights = {0.5, 0.5, 0.0, 0.0};
  const auto idx = start.slots(cal(0));
  start.day[idx[0]] = 0.25;
  start.week[idx[1]] = -0.25;
  std::vector<double> trace = mixed_trace(29, 24 * 7);
  trace[0] = 0.5;
  expect_bitwise_from(start, trace, 24 * 7);
}

namespace {

struct PretrainFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};
  n::SdnSwitch sw{q};

  void add_vms() {
    cluster.add_host(s::HostSpec{"P1", 16, 65536, 2});
    // One-week traces pretrained for longer wrap around; the odd lengths
    // wrap off the week boundary.
    const std::size_t lengths[] = {24 * 7, 24 * 7, 100, 24 * 7 + 5, 1};
    std::uint64_t seed = 21;
    for (const std::size_t len : lengths) {
      auto& vm = cluster.add_vm(
          s::VmSpec{"V" + std::to_string(cluster.vms().size()), 1, 1024},
          t::ActivityTrace(mixed_trace(seed++, len)));
      cluster.place(vm.id(), 0);
    }
  }

  /// The hour-major loop pretrain_models replaced, over frozen models.
  std::vector<ref::Model> oracle_pretrain(std::int64_t hours) const {
    std::vector<ref::Model> models(cluster.vms().size());
    for (std::int64_t h = 0; h < hours; ++h) {
      const auto when = cal(h);
      for (const auto& vm : cluster.vms()) {
        const double raw = vm->activity_at_hour(h);
        models[vm->id()].observe_hour(when, raw > kNoiseFloor ? raw : 0.0);
      }
    }
    return models;
  }
};

}  // namespace

TEST_F(PretrainFixture, VmMajorMatchesHourMajorOracle) {
  add_vms();
  const std::int64_t hours = 3 * 7 * 24;  // three weeks of one-week traces
  c::Controller controller(cluster, sw);
  controller.pretrain_models(hours);
  const auto oracle = oracle_pretrain(hours);
  for (const auto& vm : cluster.vms()) {
    const c::IdlenessModel* model = controller.models().find(vm->id());
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(saved(*model), oracle[vm->id()].save()) << vm->name();
    for (std::int64_t h = 0; h < 24 * 7; ++h) {
      ASSERT_EQ(bits(model->ip(cal(hours + h)).raw), bits(oracle[vm->id()].ip(cal(hours + h))))
          << vm->name() << " hour " << h;
    }
  }
}

TEST_F(PretrainFixture, ZeroDaysCreatesNoModels) {
  add_vms();
  c::Controller controller(cluster, sw);
  controller.pretrain_models(0);
  for (const auto& vm : cluster.vms()) EXPECT_EQ(controller.models().find(vm->id()), nullptr);
}

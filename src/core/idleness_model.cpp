#include "core/idleness_model.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/math.hpp"

namespace drowsy::core {

namespace u = drowsy::util;

IdlenessModel::IdlenessModel(IdlenessModelConfig config)
    : config_(config),
      si_day_(u::kHoursPerDay, 0.0),
      si_week_(u::kHoursPerDay * u::kDaysPerWeek, 0.0),
      si_month_(u::kHoursPerDay * u::kDaysPerMonth, 0.0),
      si_year_(u::kHoursPerYear, 0.0),
      damping_at_zero_(u::logistic_damping(0.0, config_.alpha, config_.beta)) {
  weights_.fill(1.0 / static_cast<double>(kScaleCount));
}

std::array<std::size_t, kScaleCount> IdlenessModel::slot_indices(
    const util::CalendarTime& c) const {
  return {
      static_cast<std::size_t>(c.hour),
      static_cast<std::size_t>(c.day_of_week * u::kHoursPerDay + c.hour),
      static_cast<std::size_t>(c.day_of_month * u::kHoursPerDay + c.hour),
      static_cast<std::size_t>(c.hour_of_year),
  };
}

std::array<double, kScaleCount> IdlenessModel::si_vector(
    const util::CalendarTime& c) const {
  const auto idx = slot_indices(c);
  return {si_day_[idx[0]], si_week_[idx[1]], si_month_[idx[2]], si_year_[idx[3]]};
}

double IdlenessModel::si(Scale scale, const util::CalendarTime& c) const {
  return si_vector(c)[static_cast<std::size_t>(scale)];
}

IdlenessProbability IdlenessModel::ip(const util::CalendarTime& c) const {
  const auto si_values = si_vector(c);
  return IdlenessProbability{u::dot(weights_, si_values)};
}

double IdlenessModel::mean_active_level() const {
  return active_hours_ == 0 ? 0.0
                            : active_level_sum_ / static_cast<double>(active_hours_);
}

void IdlenessModel::observe_hour(const util::CalendarTime& c, double activity_level) {
  assert(activity_level >= 0.0 && activity_level <= 1.0);
  const auto idx = slot_indices(c);
  const auto si_before = si_vector(c);

  // Eq. (2): the update is driven by this hour's activity when active, or
  // by the mean past active level when idle — "whenever a VM is seen idle
  // during an hour after showing high activity levels during active hours,
  // its SI* for this hour increases fast".
  const bool was_idle = activity_level == 0.0;
  if (!was_idle) {
    active_level_sum_ += activity_level;
    ++active_hours_;
  }
  const double a = was_idle ? mean_active_level() : activity_level;
  // Eq. (3): scale to the SI bounds.
  const double a_star = config_.sigma * a;

  std::array<double*, kScaleCount> slots = {&si_day_[idx[0]], &si_week_[idx[1]],
                                            &si_month_[idx[2]], &si_year_[idx[3]]};
  for (double* s : slots) {
    // Eq. (4): damping from the current score magnitude.  A zero score
    // of either sign (abs(-0.0) is +0.0) takes u(0), computed once per
    // model; every slot's first touch starts there.
    const double damping = *s == 0.0 ? damping_at_zero_
                                     : u::logistic_damping(std::abs(*s), config_.alpha,
                                                           config_.beta);
    // Eq. (5): the update value, added when idle, removed when active.
    const double v = a_star * damping;
    *s = u::clamp(was_idle ? *s + v : *s - v, -1.0, 1.0);
  }

  if (config_.learn_weights) {
    learn_weights(si_before, si_vector(c));
  }
  ++observed_hours_;
}

namespace {
constexpr char kMagic[] = "drowsy-im";
constexpr int kVersion = 1;

void write_block(std::ostream& out, const std::vector<double>& values) {
  out << values.size() << '\n';
  for (double v : values) out << v << ' ';
  out << '\n';
}

/// An unsigned count.  Stream extraction would wrap a leading '-' to a
/// huge value, so it is refused up front.
std::uint64_t read_count(std::istream& in, const char* what) {
  std::uint64_t n = 0;
  if (!(in >> std::ws) || in.peek() == '-' || !(in >> n)) {
    throw std::runtime_error(std::string("idleness model: bad ") + what);
  }
  return n;
}

std::vector<double> read_block(std::istream& in, std::size_t expected) {
  if (read_count(in, "score block size") != expected) {
    throw std::runtime_error("idleness model: bad score block size");
  }
  std::vector<double> values(expected);
  for (double& v : values) {
    if (!(in >> v)) throw std::runtime_error("idleness model: truncated score block");
    if (!(v >= -1.0 && v <= 1.0)) {
      throw std::runtime_error("idleness model: SI score outside [-1, 1]");
    }
  }
  return values;
}
}  // namespace

void IdlenessModel::save(std::ostream& out) const {
  const auto precision = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);
  out << kMagic << ' ' << kVersion << '\n';
  out << active_level_sum_ << ' ' << active_hours_ << ' ' << observed_hours_ << '\n';
  for (double w : weights_) out << w << ' ';
  out << '\n';
  write_block(out, si_day_);
  write_block(out, si_week_);
  write_block(out, si_month_);
  write_block(out, si_year_);
  out.precision(precision);
}

IdlenessModel IdlenessModel::load(std::istream& in, IdlenessModelConfig config) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic) {
    throw std::runtime_error("idleness model: bad magic");
  }
  if (version != kVersion) {
    throw std::runtime_error("idleness model: unsupported version " +
                             std::to_string(version));
  }
  IdlenessModel model(config);
  if (!(in >> model.active_level_sum_)) {
    throw std::runtime_error("idleness model: truncated header");
  }
  model.active_hours_ = read_count(in, "active hour count");
  model.observed_hours_ = read_count(in, "observed hour count");
  if (model.active_hours_ > model.observed_hours_) {
    throw std::runtime_error("idleness model: more active than observed hours");
  }
  if (!(model.active_level_sum_ >= 0.0 &&
        model.active_level_sum_ <= static_cast<double>(model.active_hours_))) {
    throw std::runtime_error("idleness model: active level sum outside [0, active hours]");
  }
  double weight_sum = 0.0;
  for (double& w : model.weights_) {
    if (!(in >> w)) throw std::runtime_error("idleness model: truncated weights");
    if (!std::isfinite(w) || w < 0.0) {
      throw std::runtime_error("idleness model: negative or non-finite weight");
    }
    weight_sum += w;
  }
  if (std::abs(weight_sum - 1.0) > 1e-9) {
    throw std::runtime_error("idleness model: weights do not sum to 1");
  }
  model.si_day_ = read_block(in, u::kHoursPerDay);
  model.si_week_ = read_block(in, u::kHoursPerDay * u::kDaysPerWeek);
  model.si_month_ = read_block(in, u::kHoursPerDay * u::kDaysPerMonth);
  model.si_year_ = read_block(in, u::kHoursPerYear);
  return model;
}

void IdlenessModel::learn_weights(const std::array<double, kScaleCount>& si_before,
                                  const std::array<double, kScaleCount>& si_after) {
  // Eq. (7): the unobservable "true" IP is replaced by IP' = w0ᵀ·SI',
  // the pre-update weights applied to the post-update scores.
  const double ip_prime = u::dot(weights_, si_after);

  // Minimize eq. (8): Q(w) = (IP' − wᵀ·SI)² by steepest descent with
  // exact line search.  Q is quadratic with the rank-1 Hessian 2·SI·SIᵀ,
  // so the optimally-stepped descent direction has the closed form
  // Δw = e·SI / |SI|² with e = IP' − wᵀ·SI; a fixed learning rate would
  // either stall (SI magnitudes are ~σ = 1/8760) or diverge, whereas the
  // line-searched step is scale-free.  The damping factor and iteration
  // bound set the "precision" knob the paper says "can be set to not
  // incur any overhead"; each step is followed by the simplex projection
  // that keeps IP a convex combination of SI scores.
  //
  // The descent ends early at |e| < 1e-15 or at its bitwise fixed point.
  // A step is a pure function of (w, IP', SI, |SI|², rate), so once one
  // leaves the projected weights' bits unchanged every later step would
  // too.  Bits, not ==: +0.0 == -0.0, yet the two are different inputs
  // and save() prints the sign.  Models on a simplex vertex stop after
  // one step.
  //
  // Every operation below is bit-for-bit the reference order (see
  // docs/architecture.md): the step divides by denom, never multiplies by
  // its reciprocal, and each sum runs left to right from +0.
  const double denom = u::dot(si_before, si_before);
  if (denom < 1e-30) return;  // fresh model: no signal to assign credit on
  for (std::size_t step = 0; step < config_.weight_descent_steps; ++step) {
    const double e = ip_prime - u::dot(weights_, si_before);
    if (std::abs(e) < 1e-15) break;
    const auto before = weights_;
    for (std::size_t i = 0; i < kScaleCount; ++i) {
      weights_[i] += config_.weight_learning_rate * e * si_before[i] / denom;
    }
    u::project_to_simplex(weights_);
    if (std::memcmp(before.data(), weights_.data(), sizeof weights_) == 0) break;
  }
}

}  // namespace drowsy::core

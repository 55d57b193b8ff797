// The idleness model (IM) and idleness probability (IP) — paper §III.
//
// Each VM carries synthesized-idleness (SI) scores at four time scales:
//   SId(h)          — 24 scores, hour of day;
//   SIw(h, dw)      — 24×7, hour × day-of-week;
//   SIm(h, dm)      — 24×31, hour × day-of-month;
//   SIy(h, dm, m)   — 24×365, hour × day-of-year;
// plus four learned weights (wd, ww, wm, wy).  Scores live in [-1, 1]:
// +1 means "determined idle", -1 "determined active", 0 "undetermined".
//
// Every hour the four scores of the elapsed slot are updated (eqs. 2–5):
// incremented when the VM was idle the whole hour, decremented otherwise,
// by v = a* · u(|SI|) where a* = σ·a scales the activity level and
// u(x) = 1/(1+e^{α(x-β)}) damps updates near the extremes.  The weights
// are then corrected by steepest descent on the quadratic proxy error
// Q(w) = (w0ᵀ·SI' − wᵀ·SI)² (eqs. 6–8).
//
// The idleness probability for a future hour is IP = wᵀ·SI (eq. 1).  We
// keep the weights on the probability simplex so the raw IP stays in
// [-1, 1] and expose a normalized form in [0, 1]; "predicted idle" means
// normalized IP > 0.5 (the paper's "IP is higher than 50%").
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/config.hpp"
#include "util/sim_time.hpp"

namespace drowsy::core {

/// The four time scales, in the paper's order.
enum class Scale : std::size_t { Day = 0, Week = 1, Month = 2, Year = 3 };
inline constexpr std::size_t kScaleCount = 4;

/// Raw and normalized idleness probability.
struct IdlenessProbability {
  double raw = 0.0;  ///< wᵀ·SI in [-1, 1]

  [[nodiscard]] double normalized() const { return (raw + 1.0) / 2.0; }
  [[nodiscard]] bool predicts_idle() const { return raw > 0.0; }
};

/// One VM's idleness model.
class IdlenessModel {
 public:
  explicit IdlenessModel(IdlenessModelConfig config = {});

  /// SI-score vector for the slot addressed by `c`.
  [[nodiscard]] std::array<double, kScaleCount> si_vector(
      const util::CalendarTime& c) const;

  /// Idleness probability for the hour addressed by `c` (eq. 1).
  [[nodiscard]] IdlenessProbability ip(const util::CalendarTime& c) const;

  /// Record the fully elapsed hour addressed by `c`: `activity_level` is
  /// the noise-filtered quanta ratio of that hour (0 ⇒ the VM was idle the
  /// whole hour).  Updates the four SI scores (eqs. 2–5) and corrects the
  /// weights (eq. 8).
  void observe_hour(const util::CalendarTime& c, double activity_level);

  [[nodiscard]] const std::array<double, kScaleCount>& weights() const { return weights_; }
  [[nodiscard]] const IdlenessModelConfig& config() const { return config_; }

  /// Mean activity level over past *active* hours (the ā of eq. 2).
  [[nodiscard]] double mean_active_level() const;

  /// Number of observed hours so far.
  [[nodiscard]] std::uint64_t observed_hours() const { return observed_hours_; }

  /// Direct SI access for tests/inspection.
  [[nodiscard]] double si(Scale scale, const util::CalendarTime& c) const;

  /// Persist the full model state (scores, weights, activity statistics)
  /// in a versioned text format.  A model follows its VM across live
  /// migrations and controller restarts.
  void save(std::ostream& out) const;

  /// Restore a model saved with save().  Throws std::runtime_error on a
  /// malformed or version-incompatible stream, or on state save() cannot
  /// produce: an SI score outside [-1, 1], a negative or non-finite weight,
  /// weights not summing to 1 (within 1e-9), a negative count, more active
  /// than observed hours, or an active-level sum outside [0, active hours].
  /// The model's config stays as constructed (tunables are deployment
  /// policy, not learned state).
  static IdlenessModel load(std::istream& in, IdlenessModelConfig config = {});

 private:
  [[nodiscard]] std::array<std::size_t, kScaleCount> slot_indices(
      const util::CalendarTime& c) const;
  void learn_weights(const std::array<double, kScaleCount>& si_before,
                     const std::array<double, kScaleCount>& si_after);

  IdlenessModelConfig config_;
  std::vector<double> si_day_;    // 24
  std::vector<double> si_week_;   // 24*7
  std::vector<double> si_month_;  // 24*31
  std::vector<double> si_year_;   // 24*365
  std::array<double, kScaleCount> weights_;
  double damping_at_zero_;  // u(0) of eq. 4 for this config
  double active_level_sum_ = 0.0;
  std::uint64_t active_hours_ = 0;
  std::uint64_t observed_hours_ = 0;
};

}  // namespace drowsy::core

// Guest operating-system model.
//
// Each simulated VM runs one GuestOs: a process table, a high-resolution
// timer queue and CPU-quantum accounting.  This is the substrate the
// suspending module introspects — it replaces the helper kernel module the
// paper developed to walk the hrtimer red-black tree (§V-B), and the
// /proc-style process scan used for the idleness check (§IV).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kern/hrtimer.hpp"
#include "kern/process.hpp"
#include "util/sim_time.hpp"

namespace drowsy::kern {

/// The scheduler-noise floor on an hour's activity level ("very short
/// scheduling quanta — noise — are filtered out", §III-C), defined once
/// for every layer.  The quantum ledger, the request fabric, service run
/// states and the idleness models' input treat activity at or below it as
/// noise; the Oasis idleness cutoff and the VM taxonomy count hours
/// strictly below it as idle.
inline constexpr double kNoiseFloor = 0.005;

/// Quanta in one hour of a guest's CPU (1 ms quanta).
inline constexpr std::uint64_t kQuantaPerHour = 3'600'000;

/// CPU-quantum accounting for one wall-clock hour.  The idleness model's
/// activity level is "the ratio of CPU quanta scheduled for the VM, over
/// the total possible quanta during an hour; very short scheduling quanta —
/// noise — are filtered out" (paper §III-C).
struct QuantumLedger {
  std::uint64_t used_quanta = 0;    ///< quanta consumed by non-noise work
  std::uint64_t noise_quanta = 0;   ///< quanta below the noise threshold
  std::uint64_t total_quanta = 0;   ///< capacity of the hour

  /// Activity level in [0, 1]; noise quanta are filtered out.
  [[nodiscard]] double activity_level() const {
    if (total_quanta == 0) return 0.0;
    return static_cast<double>(used_quanta) / static_cast<double>(total_quanta);
  }
};

/// A timer-driven service description (e.g. a nightly backup): every time
/// the service runs, it re-arms its timer for the next occurrence.
struct TimerService {
  std::string name;
  Pid pid = 0;
  std::unique_ptr<HrTimer> timer;
  /// Given "now", the next instant the service wants to run.
  std::function<util::SimTime(util::SimTime)> next_occurrence;
  /// Invoked when the timer fires (service becomes runnable).
  std::function<void(util::SimTime)> on_fire;
};

/// One guest OS instance.
class GuestOs {
 public:
  /// Creates the standard kernel/system processes (all blacklisted ones).
  GuestOs();
  GuestOs(const GuestOs&) = delete;
  GuestOs& operator=(const GuestOs&) = delete;
  ~GuestOs();

  [[nodiscard]] ProcessTable& processes() { return procs_; }
  [[nodiscard]] const ProcessTable& processes() const { return procs_; }
  [[nodiscard]] HrTimerQueue& timers() { return timers_; }
  [[nodiscard]] const HrTimerQueue& timers() const { return timers_; }

  /// Spawn the main service process of the VM (e.g. "webserver").
  Pid spawn_service(std::string name);

  /// Register a timer-driven service: spawns a process, arms its first
  /// timer at next_occurrence(now).  The timer re-arms itself after every
  /// firing and flips the process Running; callers mark it Sleeping again
  /// once the work completes.
  Pid add_timer_service(std::string name, util::SimTime now,
                        std::function<util::SimTime(util::SimTime)> next_occurrence,
                        std::function<void(util::SimTime)> on_fire = {});

  /// Account one hour of CPU usage for the guest.  `activity` in [0, 1] is
  /// the gross fraction of quanta used; an hour whose quanta do not exceed
  /// kNoiseFloor of the hour is recorded as noise and filtered from the
  /// activity level.
  void record_hour(double activity);

  /// Activity level of the most recently recorded hour (noise filtered).
  [[nodiscard]] double last_hour_activity() const { return last_hour_.activity_level(); }
  [[nodiscard]] const QuantumLedger& last_hour_ledger() const { return last_hour_; }

  /// Sessions (SSH/TCP) handling — the paper's second false-positive class.
  void open_session(Pid pid);
  void close_session(Pid pid);
  [[nodiscard]] int total_open_sessions() const;

  /// Fire all timers due at `now` (re-arming recurring services).
  std::size_t fire_due_timers(util::SimTime now);

  /// True when some non-blacklisted process is Running.
  [[nodiscard]] bool any_relevant_running(const Blacklist& blacklist) const;

  /// True when some process (blacklisted or not) is blocked on I/O.
  [[nodiscard]] bool any_blocked_on_io() const;

  /// Earliest armed timer not owned by a blacklisted process; kNever if none.
  [[nodiscard]] util::SimTime earliest_relevant_timer(const Blacklist& blacklist) const;

 private:
  ProcessTable procs_;
  HrTimerQueue timers_;
  std::vector<std::unique_ptr<TimerService>> services_;
  QuantumLedger last_hour_;
};

}  // namespace drowsy::kern

// The suspending module — paper §IV.
//
// One instance monitors one host.  Every check interval it decides whether
// the host is genuinely idle:
//  * a process is only evidence of activity when it is Running and not
//    blacklisted (kernel watchdogs, monitoring agents — "false negatives");
//  * a process blocked on I/O keeps the host awake, as do open sessions
//    (SSH/TCP) — the paper's "false positives";
//  * after every resume a *grace time* (5 s – 2 min, exponentially longer
//    as the host's IP decreases) blocks re-suspension, preventing
//    suspend/resume oscillation.
//
// Before suspending, the module walks every guest's hrtimer tree for the
// earliest timer owned by a non-blacklisted process — the *waking date* —
// and registers it with the waking module.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "core/model_builder.hpp"
#include "core/waking_module.hpp"
#include "kern/process.hpp"
#include "sim/cluster.hpp"

namespace drowsy::core {

/// Decision statistics (Fig. 3 effectiveness/overhead evaluation).
struct SuspendStats {
  std::uint64_t checks = 0;
  std::uint64_t suspends = 0;
  std::uint64_t blocked_by_grace = 0;
  std::uint64_t blocked_by_running = 0;
  std::uint64_t blocked_by_io = 0;
  std::uint64_t blocked_by_sessions = 0;
  std::uint64_t blocked_by_imminent_timer = 0;
};

/// Per-host suspend daemon.
///
/// Checks run on the grid start() + k·check_interval.  A check that
/// suspends the host parks the chain: nothing is scheduled while the host
/// is out of S0, and on_host_wake() re-arms it at the next grid point.  So
/// `checks` counts only checks of an awake host, unless a resume can take
/// a whole interval (see parks()).
class SuspendModule {
 public:
  SuspendModule(sim::Host& host, sim::Cluster& cluster, ModelBuilder& models,
                SuspendConfig config, kern::Blacklist blacklist = kern::Blacklist::standard());

  /// Attach the waking module(s) to notify before suspending.
  void set_waking_module(WakingModule* waking) { waking_ = waking; }

  /// Begin periodic checks on the cluster's event queue.  The owner must
  /// call on_host_wake() on every resume (Controller::install wires it),
  /// or a parked chain never restarts.
  void start();
  void stop();

  /// The idleness decision, exposed for tests: true when nothing relevant
  /// runs, nothing waits on I/O and no session is open on any resident VM.
  [[nodiscard]] bool host_idle() const;

  /// Earliest relevant guest timer across resident VMs (kNever if none).
  [[nodiscard]] util::SimTime compute_wake_date() const;

  /// Grace duration from the host's idleness probability: g_min when the
  /// host is determined idle, exponentially approaching g_max as the IP
  /// drops ("exponentially increasing as the IP decreases", §IV).
  [[nodiscard]] util::SimTime grace_duration(const util::CalendarTime& c) const;

  /// Host-resume hook: opens the post-resume grace window and re-arms a
  /// parked check chain.
  void on_host_wake();

  /// Run one idleness check right now (also used by benches).
  void check();

  [[nodiscard]] const SuspendStats& stats() const { return stats_; }
  [[nodiscard]] util::SimTime grace_until() const { return grace_until_; }
  [[nodiscard]] const kern::Blacklist& blacklist() const { return blacklist_; }

 private:
  void schedule_check(util::SimTime at);
  /// Whether a suspend parks the chain: only when every resume finishes
  /// within one interval (see on_host_wake).
  [[nodiscard]] bool parks() const;

  sim::Host& host_;
  sim::Cluster& cluster_;
  ModelBuilder& models_;
  SuspendConfig config_;
  kern::Blacklist blacklist_;
  WakingModule* waking_ = nullptr;
  bool running_ = false;
  std::uint64_t generation_ = 0;
  util::SimTime origin_ = 0;  ///< grid origin: the instant of the last start()
  bool parked_ = false;       ///< chain stopped by our suspend, until the wake
  util::SimTime grace_until_ = 0;
  SuspendStats stats_;
};

}  // namespace drowsy::core

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
///
/// `checks` and `blocked_by_running` count the checks that actually ran.
/// A parked chain runs none (see SuspendModule), so both fall whenever
/// parking improves and no artifact may depend on them; every other
/// outcome is what the always-on chain would count.
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
/// Checks run on the grid start() + k·check_interval, and the chain parks
/// — schedules nothing — while a check could only repeat its last answer:
///  * a check that suspends the host parks it while the host is out of
///    S0 (unless a resume can take a whole interval, see parks()), and
///    on_host_wake() re-arms it;
///  * a chain check that ends blocked_by_running parks it while the host
///    stays busy.  The host reports every change that could end that
///    verdict (a VM leaving it; a process of a resident guest leaving
///    Running, entering BlockedIo or opening a session — see
///    kern::ProcessTable::set_on_change), and the chain re-arms at the
///    first grid point where the always-on chain would see the change.
///    Reachability and the blacklist cannot turn a running verdict into
///    a suspend, so they re-arm nothing.
/// tests/core/test_suspend_chain.cpp holds every decision to the
/// always-on chain's.
class SuspendModule {
 public:
  /// Registers with `host` for its guest-change reports (see above).
  SuspendModule(sim::Host& host, sim::Cluster& cluster, ModelBuilder& models,
                SuspendConfig config);
  ~SuspendModule();
  SuspendModule(const SuspendModule&) = delete;
  SuspendModule& operator=(const SuspendModule&) = delete;

  /// Attach the waking module(s) to notify before suspending.
  void set_waking_module(WakingModule* waking) { waking_ = waking; }

  /// Begin periodic checks on the cluster's event queue.  The owner must
  /// call on_host_wake() on every resume (Controller::install wires it),
  /// or a parked chain never restarts.
  void start();

  /// Earliest relevant guest timer across resident VMs (kNever if none).
  [[nodiscard]] util::SimTime compute_wake_date() const;

  /// Grace duration from the host's idleness probability: g_min when the
  /// host is determined idle, exponentially approaching g_max as the IP
  /// drops ("exponentially increasing as the IP decreases", §IV).
  [[nodiscard]] util::SimTime grace_duration(const util::CalendarTime& c) const;

  /// Host-resume hook: opens the post-resume grace window and re-arms a
  /// parked check chain.
  void on_host_wake();

  /// Guest-change hook (the host calls it): re-arms a chain parked on a
  /// busy host.
  void on_guest_change();

  /// Run one idleness check right now (the chain's event runs it; tests
  /// call it by hand).
  void check();

  [[nodiscard]] const SuspendStats& stats() const { return stats_; }
  [[nodiscard]] util::SimTime grace_until() const { return grace_until_; }

 private:
  enum class Park : std::uint8_t {
    None,    ///< the chain is scheduled (or not started)
    Asleep,  ///< our suspend parked it; the next wake re-arms it
    Busy,    ///< a running verdict parked it; a guest change re-arms it
  };

  void schedule_check(util::SimTime at);
  /// Whether a suspend parks the chain: only when every resume finishes
  /// within one interval (see on_host_wake).
  [[nodiscard]] bool parks() const;
  /// The first grid point strictly after `t`.
  [[nodiscard]] util::SimTime grid_after(util::SimTime t) const;

  sim::Host& host_;
  sim::Cluster& cluster_;
  ModelBuilder& models_;
  SuspendConfig config_;
  kern::Blacklist blacklist_ = kern::Blacklist::standard();
  WakingModule* waking_ = nullptr;
  bool running_ = false;
  std::uint64_t generation_ = 0;
  util::SimTime origin_ = 0;  ///< grid origin: the instant of the last start()
  Park park_ = Park::None;
  util::SimTime parked_at_ = 0;  ///< instant of the check that parked on Busy
  /// The queue's next seq right after that check: the seq the always-on
  /// chain gave its next check.
  std::uint64_t park_seq_ = 0;
  util::SimTime grace_until_ = 0;
  SuspendStats stats_;
};

}  // namespace drowsy::core

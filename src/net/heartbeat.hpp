// Heartbeat-based failure detection for mirrored waking modules.
//
// "All waking modules work in a collaborated manner.  Each waking module
// monitors — via a heart beat mechanism — and mirrors another one.  In
// this way, when a waking module is defective, it is replaced with an
// identical version." (paper §V)
//
// A HeartbeatMonitor expects a beat every `interval`; after
// `miss_threshold` consecutive misses it declares the peer dead and invokes
// the failover action.  The netsim wake fabric runs one per host on real
// switch frames.  A MirroredPair couples a primary waking module and its
// standby with the same timing contract, computed in closed form instead
// of simulated beat by beat.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/sdn_switch.hpp"
#include "util/sim_time.hpp"

namespace drowsy::net {

/// Configuration for the heartbeat protocol.
struct HeartbeatConfig {
  util::SimTime interval = util::seconds(1);
  int miss_threshold = 3;  ///< consecutive missed beats before failover
};

/// Observes heartbeats from a peer and triggers failover when they stop.
class HeartbeatMonitor {
 public:
  HeartbeatMonitor(Dispatcher& dispatcher, HeartbeatConfig config,
                   std::function<void()> on_failover);

  /// Start watching.  Checks run every `interval` until failover fires or
  /// stop() is called.
  void start();
  void stop();

  /// Record a beat from the peer (called by the transport on delivery).
  void beat_received();

  [[nodiscard]] bool failed_over() const { return failed_over_; }
  [[nodiscard]] int consecutive_misses() const { return misses_; }

 private:
  void check();

  Dispatcher& dispatcher_;
  HeartbeatConfig config_;
  std::function<void()> on_failover_;
  bool running_ = false;
  bool failed_over_ = false;
  bool beat_since_check_ = false;
  int misses_ = 0;
  std::uint64_t generation_ = 0;  ///< invalidates stale scheduled checks
};

/// A primary/standby pair, event-free while the primary lives.
///
/// It models a primary beating at every tick t0 + k·interval (t0 = the
/// start() instant) and a HeartbeatMonitor on the standby checking on the
/// same grid, without simulating either: kill_primary() schedules the one
/// promotion event at the instant the fatal check would fire,
/// L + (miss_threshold + 1)·interval, with L the last tick at or before the
/// kill.  A primary killed before start() never beats and is replaced at
/// t0 + miss_threshold·interval.
///
/// Where the beat-chain model's (time, seq) order would differ: a kill
/// from an event queued before the previous tick's beat ran before that
/// tick's beat there, so failover came one interval earlier; and an event
/// at the promotion instant F queued after the kill but before the check
/// at F − interval ran before promotion there, after it here.  Every other
/// case, including a kill after run_until(tick), matches exactly
/// (tests/net/test_heartbeat_eventqueue.cpp).
class MirroredPair {
 public:
  MirroredPair(Dispatcher& dispatcher, HeartbeatConfig config,
               std::function<void()> on_promote_standby);

  /// Arm the pair at the current instant (the beat grid's origin).
  void start();

  /// Simulate a crash of the primary: it stops emitting beats, and the
  /// standby's promotion is scheduled.  Repeated calls are no-ops.
  void kill_primary();

  [[nodiscard]] bool primary_alive() const { return primary_alive_; }
  [[nodiscard]] bool standby_promoted() const { return promoted_; }

 private:
  void schedule_promotion(util::SimTime at);

  Dispatcher& dispatcher_;
  HeartbeatConfig config_;
  std::function<void()> on_promote_standby_;
  util::SimTime t0_ = 0;
  bool primary_alive_ = true;
  bool started_ = false;
  bool promoted_ = false;
};

}  // namespace drowsy::net

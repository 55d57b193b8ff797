// The beat-by-beat heartbeat monitor, frozen as net::MirroredPair's oracle.
//
// This is the HeartbeatMonitor src/net/heartbeat.cpp carried while the
// wake fabric ran one per host, lifted out unchanged when that per-host
// heartbeat was deleted.  MirroredPair computes the standby's promotion
// instant in closed form; the MirroredPairDifferential suite composes this
// monitor with a primary that beats every interval and requires the same
// (instant, event) logs from both.  Every line here is part of the
// timing contract, not an implementation to optimize.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/heartbeat.hpp"
#include "net/sdn_switch.hpp"
#include "util/log.hpp"

namespace drowsy::testing {

/// Observes heartbeats from a peer and triggers failover when they stop.
class HeartbeatMonitor {
 public:
  HeartbeatMonitor(net::Dispatcher& dispatcher, net::HeartbeatConfig config,
                   std::function<void()> on_failover)
      : dispatcher_(dispatcher), config_(config), on_failover_(std::move(on_failover)) {}

  /// Start watching.  Checks run every `interval` until failover fires or
  /// stop() is called.
  void start() {
    if (running_) return;
    running_ = true;
    failed_over_ = false;
    misses_ = 0;
    beat_since_check_ = false;
    const std::uint64_t gen = ++generation_;
    dispatcher_.schedule_after(
        config_.interval, [this, gen] { if (generation_ == gen && running_) check(); },
        obs::EventTag::Heartbeat);
  }

  void stop() {
    running_ = false;
    ++generation_;
  }

  /// Record a beat from the peer (called by the transport on delivery).
  void beat_received() { beat_since_check_ = true; }

  [[nodiscard]] bool failed_over() const { return failed_over_; }
  [[nodiscard]] int consecutive_misses() const { return misses_; }

 private:
  void check() {
    if (beat_since_check_) {
      misses_ = 0;
    } else {
      ++misses_;
    }
    beat_since_check_ = false;
    if (misses_ >= config_.miss_threshold) {
      running_ = false;
      failed_over_ = true;
      DROWSY_LOG_INFO("heartbeat", "peer declared dead after %d misses; failing over",
                      misses_);
      if (on_failover_) on_failover_();
      return;
    }
    const std::uint64_t gen = generation_;
    dispatcher_.schedule_after(
        config_.interval, [this, gen] { if (generation_ == gen && running_) check(); },
        obs::EventTag::Heartbeat);
  }

  net::Dispatcher& dispatcher_;
  net::HeartbeatConfig config_;
  std::function<void()> on_failover_;
  bool running_ = false;
  bool failed_over_ = false;
  bool beat_since_check_ = false;
  int misses_ = 0;
  std::uint64_t generation_ = 0;  ///< invalidates stale scheduled checks
};

}  // namespace drowsy::testing

#include "net/heartbeat.hpp"

#include "util/log.hpp"

namespace drowsy::net {

HeartbeatMonitor::HeartbeatMonitor(Dispatcher& dispatcher, HeartbeatConfig config,
                                   std::function<void()> on_failover)
    : dispatcher_(dispatcher), config_(config), on_failover_(std::move(on_failover)) {}

void HeartbeatMonitor::start() {
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

void HeartbeatMonitor::stop() {
  running_ = false;
  ++generation_;
}

void HeartbeatMonitor::beat_received() { beat_since_check_ = true; }

void HeartbeatMonitor::check() {
  if (beat_since_check_) {
    misses_ = 0;
  } else {
    ++misses_;
  }
  beat_since_check_ = false;
  if (misses_ >= config_.miss_threshold) {
    running_ = false;
    failed_over_ = true;
    DROWSY_LOG_INFO("heartbeat", "peer declared dead after %d misses; failing over", misses_);
    if (on_failover_) on_failover_();
    return;
  }
  const std::uint64_t gen = generation_;
  dispatcher_.schedule_after(
      config_.interval, [this, gen] { if (generation_ == gen && running_) check(); },
      obs::EventTag::Heartbeat);
}

MirroredPair::MirroredPair(Dispatcher& dispatcher, HeartbeatConfig config,
                           std::function<void()> on_promote_standby)
    : dispatcher_(dispatcher),
      config_(config),
      on_promote_standby_(std::move(on_promote_standby)) {}

void MirroredPair::start() {
  if (started_) return;
  started_ = true;
  t0_ = dispatcher_.now();
  // A primary dead before start() never beats: the first miss_threshold
  // checks all miss.
  if (!primary_alive_) schedule_promotion(t0_ + config_.miss_threshold * config_.interval);
}

void MirroredPair::kill_primary() {
  if (!primary_alive_) return;
  primary_alive_ = false;
  if (!started_) return;
  // The last beat sits on the grid tick at or before now; the check one
  // interval later still sees it, then miss_threshold checks miss.
  const util::SimTime last_beat =
      t0_ + (dispatcher_.now() - t0_) / config_.interval * config_.interval;
  schedule_promotion(last_beat + (config_.miss_threshold + 1) * config_.interval);
}

void MirroredPair::schedule_promotion(util::SimTime at) {
  dispatcher_.schedule_after(
      at - dispatcher_.now(),
      [this] {
        promoted_ = true;
        DROWSY_LOG_INFO("heartbeat", "peer declared dead after %d misses; failing over",
                        config_.miss_threshold);
        if (on_promote_standby_) on_promote_standby_();
      },
      obs::EventTag::Heartbeat);
}

}  // namespace drowsy::net

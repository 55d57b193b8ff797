#include "core/suspend_module.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/log.hpp"
#include "util/math.hpp"

namespace drowsy::core {

namespace {
/// Sleeping for less than this is not worth the transition energy; it
/// would be suspend/resume thrash on the suspend side (the grace time
/// handles the resume side).
constexpr util::SimTime kMinWorthwhileSleep = util::seconds(30);
}  // namespace

SuspendModule::SuspendModule(sim::Host& host, sim::Cluster& cluster, ModelBuilder& models,
                             SuspendConfig config)
    : host_(host), cluster_(cluster), models_(models), config_(config) {
  host_.set_on_guest_change([this] { on_guest_change(); });
}

SuspendModule::~SuspendModule() { host_.set_on_guest_change({}); }

void SuspendModule::start() {
  if (running_ || config_.rule == SuspendRule::Never) return;
  running_ = true;
  origin_ = cluster_.queue().now();
  // A chain parked by our own suspend restarts from on_host_wake().
  if (park_ == Park::Asleep && host_.state() != sim::PowerState::S0) return;
  park_ = Park::None;
  schedule_check(origin_ + config_.check_interval);
}

void SuspendModule::schedule_check(util::SimTime at) {
  const std::uint64_t gen = generation_;
  cluster_.queue().schedule_at(
      at,
      [this, gen] {
        if (generation_ != gen) return;
        const std::uint64_t busy = stats_.blocked_by_running;
        check();
        const sim::EventQueue& q = cluster_.queue();
        if (stats_.blocked_by_running != busy) {
          // Busy: park until on_guest_change().  Nothing else is queued.
          park_ = Park::Busy;
          parked_at_ = q.now();
          park_seq_ = q.next_seq();
          return;
        }
        // check() bumps the generation when it parks the chain.
        if (generation_ == gen) schedule_check(q.now() + config_.check_interval);
      },
      obs::EventTag::SuspendCheck);
}

util::SimTime SuspendModule::grid_after(util::SimTime t) const {
  assert(t >= origin_);
  const util::SimTime interval = config_.check_interval;
  return origin_ + ((t - origin_) / interval + 1) * interval;
}

bool SuspendModule::parks() const {
  const sim::PowerModel& pm = host_.power_model();
  return std::max(pm.resume_latency, pm.quick_resume_latency) < config_.check_interval;
}

util::SimTime SuspendModule::compute_wake_date() const {
  util::SimTime earliest = util::kNever;
  for (const sim::Vm* vm : host_.vms()) {
    earliest = std::min(earliest, vm->guest().earliest_relevant_timer(blacklist_));
  }
  return earliest;
}

util::SimTime SuspendModule::grace_duration(const util::CalendarTime& c) const {
  // Normalized IP in [0,1]: 1 = determined idle -> short grace (g_min);
  // 0 = determined active -> long grace (g_max), exponential in between.
  // Raw IPs move at the σ scale, so "determined" is measured against 7σ;
  // without that scaling the normalized IP is pinned at 0.5 and the grace
  // band collapses to a point.
  const double scale = kDeterminedIpSigmas * models_.config().sigma;
  const double raw = models_.host_ip(host_, c).raw;
  const double ipn = (util::clamp(raw / scale, -1.0, 1.0) + 1.0) / 2.0;
  const double g_min = static_cast<double>(config_.grace_min);
  const double g_max = static_cast<double>(config_.grace_max);
  const double g = g_min * std::pow(g_max / g_min, 1.0 - ipn);
  return static_cast<util::SimTime>(g);
}

void SuspendModule::on_host_wake() {
  const util::SimTime now = cluster_.queue().now();
  if (config_.rule == SuspendRule::IdleHostWithGrace) {
    grace_until_ = now + grace_duration(util::calendar_of(now));
  }
  if (park_ == Park::None) return;
  park_ = Park::None;
  if (!running_) return;
  // Re-arm where the always-on chain first checked an awake host: the
  // first grid point G >= now whose event ran after the resume event.
  // For G == now that check was queued at now - interval and the resume
  // at now - latency; parks() guarantees latency < interval, so the check
  // ran first, saw Resuming and did nothing.  So G is the first grid
  // point strictly after now.  (With latency > interval it would have
  // seen S0; with equal values the order was fixed by two events one
  // interval earlier that a parked chain never sees — hence parks().)
  //
  // The re-armed event takes its sequence number now, not at
  // G - interval, so at G it may run after another host's check it used
  // to precede.  A check reads and writes only its own host (and that
  // host's waking-module entries), so the swap cannot change a decision.
  // tests/core/test_suspend_chain.cpp holds every decision to the
  // always-on chain's.
  schedule_check(grid_after(now));
}

void SuspendModule::on_guest_change() {
  if (park_ != Park::Busy) return;
  park_ = Park::None;
  if (!running_) return;
  // Re-arm where the always-on chain first checked after the change.
  // That is the first grid point strictly after now when the change
  // comes outside dispatch (the controller's hour-boundary work, after
  // run_until has run every event at now, the chain's check included),
  // inside an event at an off-grid instant, or at the instant of the
  // check that parked us.
  const sim::EventQueue& q = cluster_.queue();
  const util::SimTime now = q.now();
  const util::SimTime next = grid_after(now);
  const util::SimTime interval = config_.check_interval;
  if (!q.dispatching() || next - now != interval || now == parked_at_) {
    schedule_check(next);
    return;
  }
  // E runs at a later grid point G = now.  The always-on chain queued its
  // check for G at G - interval, right after the check there; so it ran
  // after E — and saw the change — iff E was queued first: before the
  // check that parked us (whose successor took park_seq_), or before
  // G - interval.  E queued at G - interval itself, after the park, is
  // taken as queued after that instant's check; which of the two came
  // first there depends on events no parked chain sees.
  const bool e_first = q.current_seq() < park_seq_ || q.current_queued_at() < now - interval;
  schedule_check(e_first ? now : next);
}

void SuspendModule::check() {
  ++stats_.checks;
  if (config_.rule == SuspendRule::Never || host_.state() != sim::PowerState::S0) return;
  if (config_.rule == SuspendRule::EmptyHostsOnly && !host_.vms().empty()) {
    ++stats_.blocked_by_running;
    return;
  }
  const util::SimTime now = cluster_.queue().now();
  if (config_.rule == SuspendRule::IdleHostWithGrace && now < grace_until_) {
    ++stats_.blocked_by_grace;
    return;
  }

  // The idleness decision, with attribution for the statistics.
  for (const sim::Vm* vm : host_.vms()) {
    const kern::GuestOs& guest = vm->guest();
    if (guest.any_relevant_running(blacklist_)) {
      ++stats_.blocked_by_running;
      return;
    }
    if (guest.any_blocked_on_io()) {
      ++stats_.blocked_by_io;
      return;
    }
    if (guest.total_open_sessions() > 0) {
      ++stats_.blocked_by_sessions;
      return;
    }
  }

  const util::SimTime wake_date = compute_wake_date();
  if (wake_date != util::kNever &&
      wake_date - now < kMinWorthwhileSleep + host_.power_model().suspend_latency) {
    ++stats_.blocked_by_imminent_timer;
    return;
  }

  ++stats_.suspends;
  DROWSY_LOG_DEBUG("suspend", "%s suspending; wake date %s", host_.name().c_str(),
                   wake_date == util::kNever ? "none"
                                             : util::format_duration(wake_date).c_str());
  if (waking_ != nullptr) waking_->on_host_suspending(host_, wake_date);
  host_.begin_suspend();
  // Park: the chain sleeps with the host and on_host_wake() re-arms it.
  // Bumping the generation also retires a pending chain event when an
  // external caller ran this check, so at most one is ever queued.
  if (parks()) {
    ++generation_;
    park_ = Park::Asleep;
  }
}

}  // namespace drowsy::core

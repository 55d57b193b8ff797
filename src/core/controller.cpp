#include "core/controller.hpp"

#include <cassert>

#include "util/log.hpp"

namespace drowsy::core {

Controller::Controller(sim::Cluster& cluster, net::SdnSwitch& sw,
                       ControllerOptions options)
    : cluster_(cluster),
      switch_(sw),
      options_(options),
      models_(options.drowsy.model),
      drowsy_policy_(std::make_unique<IdlenessConsolidator>(cluster, models_,
                                                            options.drowsy.placement)),
      policy_(drowsy_policy_.get()),
      fabric_(cluster, sw, options.requests) {
  drowsy_policy_->set_relocate_all_mode(options.relocate_all);
}

void Controller::set_policy(ConsolidationPolicy* policy) {
  policy_ = policy != nullptr ? policy : drowsy_policy_.get();
}

void Controller::install() {
  assert(!installed_);
  installed_ = true;

  fabric_.wire_ports();

  // Waking modules: primary plus a heartbeat-mirrored standby.
  waking_primary_ = std::make_unique<WakingModule>(cluster_, switch_, "waking-primary");
  waking_primary_->activate();
  waking_standby_ = std::make_unique<WakingModule>(cluster_, switch_, "waking-standby");
  waking_primary_->set_mirror(waking_standby_.get());
  waking_pair_ = std::make_unique<net::MirroredPair>(
      cluster_.queue(), net::HeartbeatConfig{},
      [standby = waking_standby_.get()] { standby->activate(); });
  waking_pair_->start();

  // One suspending module per host, hooked into the host's wake path.
  for (const auto& host : cluster_.hosts()) {
    auto module = std::make_unique<SuspendModule>(*host, cluster_, models_,
                                                  options_.drowsy.suspend);
    module->set_waking_module(waking_primary_.get());
    host->set_quick_resume(options_.quick_resume);
    SuspendModule* raw = module.get();
    host->add_on_wake([this, raw, h = host.get()] {
      raw->on_host_wake();
      waking_primary_->on_host_resumed(*h);
    });
    module->start();
    suspend_modules_.push_back(std::move(module));
  }
}

void Controller::place_all_unplaced() {
  const util::CalendarTime c = util::calendar_of(cluster_.queue().now());
  for (const auto& vm : cluster_.vms()) {
    if (cluster_.host_of(vm->id()) != nullptr) continue;
    auto target = drowsy_policy_->initial_placement(*vm, c);
    if (target.has_value()) {
      cluster_.place(vm->id(), *target);
    } else {
      DROWSY_LOG_WARN("controller", "no host fits VM %s", vm->name().c_str());
    }
  }
}

void Controller::pretrain_models(std::int64_t hours) {
  // Nothing to observe, or nobody to read it: create no models.
  if (hours <= 0 || !reads_models()) return;
  std::vector<util::CalendarTime> calendar;
  calendar.reserve(static_cast<std::size_t>(hours));
  util::CalendarTime next = util::calendar_of(0);
  for (std::int64_t h = 0; h < hours; ++h, util::advance_hour(next)) calendar.push_back(next);
  // VM-major: every model is independent, so feeding each VM its whole
  // history in turn leaves the same state as the hour-major order.
  for (const auto& vm : cluster_.vms()) {
    IdlenessModel& model = models_.model(vm->id());
    // The trace read of Vm::activity_at_hour, wrapping past the end.
    const std::vector<double>& trace = vm->workload().hours();
    assert(!trace.empty());
    std::size_t i = 0;
    for (const util::CalendarTime& c : calendar) {
      const double raw = trace[i];
      model.observe_hour(c, raw > kern::kNoiseFloor ? raw : 0.0);
      if (++i == trace.size()) i = 0;
    }
  }
}

void Controller::refresh_runstates(std::int64_t hour) {
  for (const auto& vm : cluster_.vms()) {
    if (cluster_.host_of(vm->id()) == nullptr) continue;
    vm->set_service_active(vm->activity_at_hour(hour) > kern::kNoiseFloor);
  }
}

void Controller::pump_guest_timers(sim::HostId id, std::int64_t hour) {
  sim::Host* host = cluster_.host(id);
  const util::SimTime hour_end = (hour + 1) * util::kMsPerHour;
  const util::SimTime now = cluster_.queue().now();
  if (host->state() == sim::PowerState::S0) {
    for (sim::Vm* vm : host->vms()) vm->guest().fire_due_timers(now);
  }
  // Chain to the next expiry within this hour (suspended hosts keep the
  // chain armed: if they resume before the expiry the pump fires on time).
  util::SimTime next = util::kNever;
  for (sim::Vm* vm : host->vms()) {
    if (const kern::HrTimer* t = vm->guest().timers().peek()) {
      next = std::min(next, t->expiry);
    }
  }
  if (next == util::kNever || next >= hour_end) return;
  // An overdue timer on a suspended host fires on resume; re-arming the
  // chain for it would spin at the current instant.
  if (next <= now) return;
  cluster_.queue().schedule_at(next, [this, id, hour] { pump_guest_timers(id, hour); },
                               obs::EventTag::Hrtimer);
}

void Controller::run_hours(std::int64_t hours,
                           const std::function<void(std::int64_t)>& on_hour_end) {
  assert(installed_ && "call install() first");
  sim::EventQueue& q = cluster_.queue();
  assert(q.now() % util::kMsPerHour == 0 && "start on an hour boundary");
  const std::int64_t start = util::hour_index(q.now());
  for (std::int64_t h = start; h < start + hours; ++h) {
    // Run states first: a suspend chain this re-arms takes its seq ahead
    // of the hour's arrival block, as the always-on chain's check did.
    refresh_runstates(h);
    fabric_.schedule_hour(h);
    for (const auto& host : cluster_.hosts()) pump_guest_timers(host->id(), h);
    q.run_until((h + 1) * util::kMsPerHour);
    cluster_.account_hour(h);
    if (reads_models()) models_.observe_hour(cluster_, h);
    policy_->run_hour(h + 1);
    if (on_hour_end) on_hour_end(h);
  }
}

}  // namespace drowsy::core

#include "sim/host.hpp"

#include <cassert>

#include "util/log.hpp"
#include "util/math.hpp"

namespace drowsy::sim {

Host::Host(HostId id, HostSpec spec, PowerModel model, EventQueue& queue)
    : id_(id),
      spec_(std::move(spec)),
      model_(model),
      queue_(queue),
      mac_(net::MacAddress::for_host(id)),
      last_account_(queue.now()) {}

bool Host::can_host(const VmSpec& vm) const {
  if (spec_.max_vms > 0 && static_cast<int>(vms_.size()) >= spec_.max_vms) return false;
  return used_vcpus() + vm.vcpus <= spec_.cpu_capacity &&
         used_memory_mb() + vm.memory_mb <= spec_.memory_mb;
}

void Host::attach_vm(Vm& vm) {
  assert(can_host(vm.spec()) && "placement must respect capacity");
  vms_.push_back(&vm);
  vm.guest().processes().set_on_change([this] {
    if (on_guest_change_) on_guest_change_();
  });
}

void Host::detach_vm(VmId id) {
  for (auto it = vms_.begin(); it != vms_.end(); ++it) {
    if ((*it)->id() == id) {
      (*it)->guest().processes().set_on_change({});
      vms_.erase(it);
      if (on_guest_change_) on_guest_change_();
      return;
    }
  }
  assert(false && "detaching a VM that is not resident");
}

int Host::used_vcpus() const {
  int n = 0;
  for (const Vm* vm : vms_) n += vm->spec().vcpus;
  return n;
}

int Host::used_memory_mb() const {
  int n = 0;
  for (const Vm* vm : vms_) n += vm->spec().memory_mb;
  return n;
}

void Host::set_utilization(double utilization) {
  account_now();
  utilization_ = util::clamp(utilization, 0.0, 1.0);
}

void Host::account_now() {
  const util::SimTime now = queue_.now();
  const util::SimTime elapsed = now - last_account_;
  if (elapsed <= 0) {
    last_account_ = now;
    return;
  }
  state_time_[static_cast<std::size_t>(state_)] += elapsed;
  // A suspended host draws suspend power regardless of its nominal load.
  const double load = state_ == PowerState::S0 ? utilization_ : 0.0;
  meter_.add(elapsed, model_.watts(state_, load));
  last_account_ = now;
}

util::SimTime Host::time_in(PowerState s) const {
  return state_time_[static_cast<std::size_t>(s)];
}

double Host::suspended_fraction(util::SimTime window_start) const {
  const util::SimTime window = queue_.now() - window_start;
  if (window <= 0) return 0.0;
  return static_cast<double>(time_in(PowerState::S3)) / static_cast<double>(window);
}

void Host::enter_state(PowerState next) {
  account_now();
  const PowerState prev = state_;
  state_ = next;
  for (const auto& hook : on_transition_) hook(prev, next);
}

bool Host::begin_suspend() {
  if (state_ != PowerState::S0) return false;
  enter_state(PowerState::Suspending);
  ++suspend_count_;
  const std::uint64_t gen = ++transition_gen_;
  DROWSY_LOG_DEBUG("host", "%s suspending at %s", spec_.name.c_str(),
                   util::format_duration(queue_.now()).c_str());
  queue_.schedule_after(
      model_.suspend_latency,
      [this, gen] {
        if (transition_gen_ != gen) return;  // superseded
        enter_state(PowerState::S3);
        if (resume_pending_) {
          resume_pending_ = false;
          begin_resume();
        }
      },
      obs::EventTag::Wake);
  return true;
}

bool Host::begin_resume() {
  if (state_ == PowerState::S0) return false;
  if (state_ == PowerState::Suspending) {
    // The wake raced with the suspend: finish suspending, then resume.
    resume_pending_ = true;
    return true;
  }
  if (state_ == PowerState::Resuming) return true;
  enter_state(PowerState::Resuming);
  ++resume_count_;
  const util::SimTime latency =
      quick_resume_ ? model_.quick_resume_latency : model_.resume_latency;
  resume_done_at_ = queue_.now() + latency;
  const std::uint64_t gen = ++transition_gen_;
  queue_.schedule_after(
      latency,
      [this, gen] {
        if (transition_gen_ != gen) return;
        enter_state(PowerState::S0);
        resume_done_at_ = 0;
        // Timers that expired while asleep fire now, on wake-up.
        for (Vm* vm : vms_) vm->guest().fire_due_timers(queue_.now());
        auto waiters = std::move(resume_waiters_);
        resume_waiters_.clear();
        for (auto& w : waiters) w();
        for (auto& hook : on_wake_) hook();
      },
      obs::EventTag::Wake);
  return true;
}

void Host::when_awake(std::function<void()> fn) {
  if (state_ == PowerState::S0) {
    fn();
  } else {
    resume_waiters_.push_back(std::move(fn));
  }
}

util::SimTime Host::resume_remaining() const {
  if (state_ == PowerState::S0) return 0;
  if (state_ == PowerState::Resuming) return resume_done_at_ - queue_.now();
  // Suspended or suspending: a resume has not started yet.
  const util::SimTime latency =
      quick_resume_ ? model_.quick_resume_latency : model_.resume_latency;
  if (state_ == PowerState::Suspending) {
    // Worst case: finish the suspend first, then resume.
    return model_.suspend_latency + latency;
  }
  return latency;
}

}  // namespace drowsy::sim

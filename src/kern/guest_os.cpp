#include "kern/guest_os.hpp"

#include <cassert>
#include <cmath>

namespace drowsy::kern {

GuestOs::GuestOs() {
  // Standard system population: kernel threads and a monitoring daemon.
  // These are exactly the "false negatives" the blacklist exists for.
  procs_.spawn("kworker/0:1", ProcState::Running, /*kernel_thread=*/true);
  procs_.spawn("ksoftirqd/0", ProcState::Sleeping, /*kernel_thread=*/true);
  procs_.spawn("rcu_sched", ProcState::Sleeping, /*kernel_thread=*/true);
  procs_.spawn("watchdog", ProcState::Running, /*kernel_thread=*/true);
  procs_.spawn("monitoring-agent", ProcState::Running);
}

GuestOs::~GuestOs() {
  // timers_ holds pointers to the services' timers; unlink them first.
  for (auto& svc : services_) {
    if (svc->timer) timers_.cancel(*svc->timer);
  }
}

Pid GuestOs::spawn_service(std::string name) {
  return procs_.spawn(std::move(name), ProcState::Sleeping);
}

Pid GuestOs::add_timer_service(std::string name, util::SimTime now,
                               std::function<util::SimTime(util::SimTime)> next_occurrence,
                               std::function<void(util::SimTime)> on_fire) {
  auto svc = std::make_unique<TimerService>();
  svc->name = name;
  svc->pid = procs_.spawn(std::move(name), ProcState::Sleeping);
  svc->next_occurrence = std::move(next_occurrence);
  svc->on_fire = std::move(on_fire);
  svc->timer = std::make_unique<HrTimer>();
  svc->timer->owner_pid = svc->pid;

  TimerService* raw = svc.get();
  svc->timer->callback = [this, raw](util::SimTime fired_at) {
    procs_.set_state(raw->pid, ProcState::Running);
    if (raw->on_fire) raw->on_fire(fired_at);
    // Re-arm for the next occurrence (recurring service).
    const util::SimTime next = raw->next_occurrence(fired_at);
    if (next != util::kNever) {
      assert(next > fired_at && "service must schedule strictly in the future");
      timers_.arm(*raw->timer, next);
    }
  };

  const util::SimTime first = svc->next_occurrence(now);
  if (first != util::kNever) timers_.arm(*svc->timer, first);
  const Pid pid = svc->pid;
  services_.push_back(std::move(svc));
  return pid;
}

void GuestOs::record_hour(double activity) {
  assert(activity >= 0.0 && activity <= 1.0);
  QuantumLedger ledger;
  ledger.total_quanta = kQuantaPerHour;
  const auto gross =
      static_cast<std::uint64_t>(std::llround(activity * static_cast<double>(kQuantaPerHour)));
  const auto floor_quanta = static_cast<std::uint64_t>(
      std::llround(kNoiseFloor * static_cast<double>(kQuantaPerHour)));
  if (gross <= floor_quanta) {
    ledger.noise_quanta = gross;  // all of it is scheduling noise
  } else {
    ledger.used_quanta = gross;
  }
  last_hour_ = ledger;
}

void GuestOs::open_session(Pid pid) { procs_.open_session(pid); }

void GuestOs::close_session(Pid pid) {
  Process* p = procs_.find(pid);
  assert(p != nullptr && p->open_sessions > 0);
  --p->open_sessions;
}

int GuestOs::total_open_sessions() const {
  int n = 0;
  procs_.for_each([&n](const Process& p) { n += p.open_sessions; });
  return n;
}

std::size_t GuestOs::fire_due_timers(util::SimTime now) { return timers_.fire_due(now); }

bool GuestOs::any_relevant_running(const Blacklist& blacklist) const {
  return procs_.any_of([&blacklist](const Process& p) {
    return p.state == ProcState::Running && !blacklist.contains(p);
  });
}

bool GuestOs::any_blocked_on_io() const {
  return procs_.any_of([](const Process& p) { return p.state == ProcState::BlockedIo; });
}

util::SimTime GuestOs::earliest_relevant_timer(const Blacklist& blacklist) const {
  const HrTimer* t = timers_.peek_filtered([this, &blacklist](const HrTimer& timer) {
    const Process* owner = procs_.find(timer.owner_pid);
    if (owner == nullptr) return false;  // orphaned timer
    return !blacklist.contains(*owner);
  });
  return t == nullptr ? util::kNever : t->expiry;
}

}  // namespace drowsy::kern

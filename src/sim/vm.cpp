#include "sim/vm.hpp"

#include <cassert>

namespace drowsy::sim {

Vm::Vm(VmId id, VmSpec spec, std::shared_ptr<const trace::ActivityTrace> trace)
    : id_(id),
      spec_(std::move(spec)),
      ip_(net::Ipv4::for_vm(id)),
      trace_(std::move(trace)),
      guest_(std::make_unique<kern::GuestOs>()) {
  assert(trace_ != nullptr && !trace_->empty() && "a VM needs a workload trace");
  service_pid_ = guest_->spawn_service(spec_.name + "-service");
}

void Vm::set_service_active(bool active) {
  guest_->processes().set_state(service_pid_, active ? kern::ProcState::Running
                                                     : kern::ProcState::Sleeping);
}

kern::Pid Vm::add_scheduled_job(EventQueue& queue, std::string name,
                                std::function<util::SimTime(util::SimTime)> next_occurrence,
                                util::SimTime work_duration,
                                std::function<void(util::SimTime)> on_run) {
  // The pid is only known after add_timer_service returns, but the on_fire
  // closure needs it: route through shared storage.
  auto pid_box = std::make_shared<kern::Pid>(0);
  kern::GuestOs* guest = guest_.get();
  const kern::Pid pid = guest->add_timer_service(
      std::move(name), queue.now(), std::move(next_occurrence),
      [&queue, guest, pid_box, work_duration, on_run = std::move(on_run)](
          util::SimTime fired_at) {
        if (on_run) on_run(fired_at);
        queue.schedule_after(
            work_duration,
            [guest, pid_box] {
              kern::ProcessTable& procs = guest->processes();
              if (procs.find(*pid_box) != nullptr) {
                // The work is done (the duration is shorter than the period
                // in practice): the service sleeps until its next firing.
                procs.set_state(*pid_box, kern::ProcState::Sleeping);
              }
            },
            obs::EventTag::Hrtimer);
      });
  *pid_box = pid;
  return pid;
}

double Vm::activity_at_hour(std::int64_t h) const {
  assert(h >= 0);
  return trace_->at_hour(static_cast<std::size_t>(h));
}

void Vm::account_hour(std::int64_t h) {
  guest_->record_hour(activity_at_hour(h));
}

}  // namespace drowsy::sim

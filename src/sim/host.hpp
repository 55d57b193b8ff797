// Physical host entity: resource capacity, the ACPI power-state machine
// and per-state time/energy accounting.
//
// Hosts move S0 → Suspending → S3 on a suspend decision, and
// S3 → Resuming → S0 on a Wake-on-LAN.  Time spent in every state is
// tracked for Table I (fraction of time suspended) and the energy numbers
// of §VI-A-3.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/addr.hpp"
#include "sim/event_queue.hpp"
#include "sim/power.hpp"
#include "sim/vm.hpp"
#include "util/sim_time.hpp"

namespace drowsy::sim {

using HostId = std::uint32_t;

/// Static description of a host.
struct HostSpec {
  std::string name;
  int cpu_capacity = 8;    ///< schedulable vCPUs (i7-3770: 4C/8T)
  int memory_mb = 16384;   ///< 16 GB like the paper's machines
  int max_vms = 0;         ///< 0 = unlimited; the paper caps at 2 VMs/host
};

/// One physical server.
class Host {
 public:
  Host(HostId id, HostSpec spec, PowerModel model, EventQueue& queue);

  [[nodiscard]] HostId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] const HostSpec& spec() const { return spec_; }
  [[nodiscard]] net::MacAddress mac() const { return mac_; }
  [[nodiscard]] PowerState state() const { return state_; }
  [[nodiscard]] const PowerModel& power_model() const { return model_; }

  /// Use the optimized resume path (≈800 ms instead of ≈1500 ms).
  void set_quick_resume(bool enabled) { quick_resume_ = enabled; }
  [[nodiscard]] bool quick_resume() const { return quick_resume_; }

  // --- VM residency (managed by the Cluster) ------------------------------
  [[nodiscard]] const std::vector<Vm*>& vms() const { return vms_; }
  [[nodiscard]] bool can_host(const VmSpec& vm) const;
  /// Attach a VM; its guest's process-table changes are reported to the
  /// guest-change observer until the VM is detached.
  void attach_vm(Vm& vm);
  /// Detach a VM and report the change to the guest-change observer.
  void detach_vm(VmId id);

  /// Set the one observer (the host's suspend module) of changes that can
  /// end a "some resident guest runs" verdict: a VM leaving, or what a
  /// resident guest's kern::ProcessTable::set_on_change reports.  An
  /// empty function removes it.
  void set_on_guest_change(std::function<void()> hook) { on_guest_change_ = std::move(hook); }
  [[nodiscard]] int used_vcpus() const;
  [[nodiscard]] int used_memory_mb() const;

  // --- utilization & energy ------------------------------------------------
  /// Set the host CPU utilization (sum of resident VM activity, normalized
  /// by capacity).  Accounts energy for the elapsed interval first.
  void set_utilization(double utilization);
  [[nodiscard]] double utilization() const { return utilization_; }

  /// Flush energy/time accounting up to the current instant.
  void account_now();

  [[nodiscard]] const EnergyMeter& energy() const { return meter_; }

  /// Cumulative time spent in `s` (accounted up to the last flush).
  [[nodiscard]] util::SimTime time_in(PowerState s) const;

  /// Fraction of the window [window_start, now] spent in S3.
  [[nodiscard]] double suspended_fraction(util::SimTime window_start) const;

  // --- power transitions ----------------------------------------------------
  /// Begin S0 → S3.  Returns false when not in S0.  `on_suspended` runs
  /// once the host has fully entered S3.
  bool begin_suspend(std::function<void()> on_suspended = {});

  /// Begin S3 → S0 (e.g. on WoL receipt).  If called while Suspending, the
  /// resume is queued to start as soon as S3 is reached.  Returns false if
  /// already awake.  `on_resumed` runs once fully in S0.
  bool begin_resume(std::function<void()> on_resumed = {});

  /// Run `fn` as soon as the host is awake: immediately when in S0,
  /// otherwise once the (separately triggered) resume completes.  Unlike
  /// begin_resume this never initiates a wake-up itself — it models a
  /// frame sitting in a retransmission queue until the server is up.
  void when_awake(std::function<void()> fn);

  /// Instant the host last completed a resume (for grace-time logic).
  [[nodiscard]] util::SimTime last_resume_at() const { return last_resume_at_; }
  /// Remaining time until the in-progress resume completes; 0 when awake.
  [[nodiscard]] util::SimTime resume_remaining() const;

  [[nodiscard]] int suspend_count() const { return suspend_count_; }
  [[nodiscard]] int resume_count() const { return resume_count_; }

  /// Append a hook invoked whenever the host completes a resume (any
  /// trigger).  Hooks run in installation order and compose: installing a
  /// second observer never drops an earlier one (e.g. the suspend
  /// checker's grace-time hook).
  void add_on_wake(std::function<void()> hook) {
    on_wake_.push_back(std::move(hook));
  }
  [[nodiscard]] std::size_t on_wake_hook_count() const { return on_wake_.size(); }

  /// Append a hook invoked on every power-state change, with the old and
  /// new state, after accounting has been flushed to the transition
  /// instant.  Same composition contract as add_on_wake: hooks run in
  /// installation order and never displace one another.  This is the
  /// timeline exporter's observation point — one choke point
  /// (enter_state) sees every transition of the S0/Suspending/S3/Resuming
  /// machine.
  void add_on_transition(std::function<void(PowerState from, PowerState to)> hook) {
    on_transition_.push_back(std::move(hook));
  }

 private:
  void enter_state(PowerState next);

  HostId id_;
  HostSpec spec_;
  PowerModel model_;
  EventQueue& queue_;
  net::MacAddress mac_;
  std::vector<Vm*> vms_;

  PowerState state_ = PowerState::S0;
  double utilization_ = 0.0;
  bool quick_resume_ = false;
  bool resume_pending_ = false;  ///< resume requested while suspending
  std::uint64_t transition_gen_ = 0;

  util::SimTime last_account_ = 0;
  std::array<util::SimTime, 4> state_time_{};  // indexed by PowerState
  EnergyMeter meter_;

  util::SimTime last_resume_at_ = 0;
  util::SimTime resume_done_at_ = 0;
  int suspend_count_ = 0;
  int resume_count_ = 0;
  std::vector<std::function<void()>> on_wake_;
  std::vector<std::function<void(PowerState, PowerState)>> on_transition_;
  std::vector<std::function<void()>> resume_waiters_;
  std::function<void()> on_guest_change_;
};

}  // namespace drowsy::sim

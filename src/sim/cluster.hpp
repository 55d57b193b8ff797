// The data-center model: hosts, VMs, placement and live migration.
//
// The cluster is deliberately policy-free — it is the substrate both
// Drowsy-DC (src/core) and the baselines (src/baselines) drive.  It tracks
// everything the evaluation reports: per-host energy and state residency,
// and per-VM and total migration counts.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/host.hpp"
#include "sim/vm.hpp"
#include "trace/trace.hpp"
#include "util/sim_time.hpp"

namespace drowsy::sim {

/// Substrate-wide settings.
struct ClusterConfig {
  PowerModel power;  ///< applied to every host
};

/// Hosts + VMs + who-runs-where.
class Cluster {
 public:
  explicit Cluster(EventQueue& queue, ClusterConfig config = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- topology -------------------------------------------------------------
  Host& add_host(HostSpec spec);
  Vm& add_vm(VmSpec spec, std::shared_ptr<const trace::ActivityTrace> workload);
  Vm& add_vm(VmSpec spec, trace::ActivityTrace workload) {
    return add_vm(std::move(spec),
                  std::make_shared<const trace::ActivityTrace>(std::move(workload)));
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Host>>& hosts() const { return hosts_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Vm>>& vms() const { return vms_; }
  [[nodiscard]] Host* host(HostId id);
  [[nodiscard]] Vm* vm(VmId id);
  /// The VM with address `ip` (Ipv4::for_vm of its id), or nullptr.
  [[nodiscard]] Vm* vm_by_ip(net::Ipv4 ip);

  // --- placement --------------------------------------------------------------
  /// Place an unplaced VM; returns false if the host lacks capacity.
  bool place(VmId vm, HostId host);

  /// Live-migrate a placed VM to `dst`; returns false if `dst` lacks
  /// capacity or the VM already runs there.  Updates migration statistics.
  bool migrate(VmId vm, HostId dst);

  /// Apply a whole placement assignment at once (simultaneous live
  /// migrations, the §VI-A-1 "periodically relocate all VMs" mode).
  /// Capacity is validated against the *final* state, so circular swaps on
  /// full hosts work.  Returns false — and changes nothing — when the
  /// final assignment violates some host's capacity.  Migration statistics
  /// count every VM whose host changed.
  bool apply_assignment(const std::vector<std::pair<VmId, HostId>>& targets);

  /// Host currently running `vm`, or nullptr when unplaced.  This is the
  /// one VM→server mapping: the request fabric addresses each frame by it
  /// when sending.  The waking module keeps its own copy, refreshed only
  /// when a host suspends (WakingModule::on_host_suspending), as in the
  /// paper.
  [[nodiscard]] Host* host_of(VmId vm) const {
    const HostId h = vm < placement_.size() ? placement_[vm] : kUnplaced;
    return h == kUnplaced ? nullptr : hosts_[h].get();
  }

  // --- per-hour bookkeeping ----------------------------------------------------
  /// Account hour `h`: record every VM's quanta ledger and refresh every
  /// host's utilization from its residents' activity.
  void account_hour(std::int64_t h);

  /// Host CPU utilization implied by hour `h` of the residents' traces.
  [[nodiscard]] double host_utilization_at(const Host& host, std::int64_t h) const;

  // --- statistics ------------------------------------------------------------
  [[nodiscard]] int total_migrations() const { return total_migrations_; }

  /// Sum of host energy, flushed to the current instant.
  [[nodiscard]] double total_kwh();

  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }

 private:
  EventQueue& queue_;
  ClusterConfig config_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Vm>> vms_;
  static constexpr HostId kUnplaced = UINT32_MAX;
  /// Host of each VM by VmId, kUnplaced until placed.
  std::vector<HostId> placement_;
  int total_migrations_ = 0;
};

}  // namespace drowsy::sim

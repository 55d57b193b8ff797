// Per-VM idleness-model maintenance — the paper's "model builder" that
// "collects every hour the activity level of each VM and updates its
// synthesized idleness scores" (§III-A).
//
// The paper runs one builder per server; models conceptually travel with
// their VM on migration.  We keep a single registry keyed by VM id, which
// is equivalent and simpler to reason about (the per-server sharding is a
// deployment detail, not an algorithmic one).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/idleness_model.hpp"
#include "sim/cluster.hpp"

namespace drowsy::core {

/// Registry of idleness models, one per VM.
class ModelBuilder {
 public:
  explicit ModelBuilder(IdlenessModelConfig config = {});

  /// The configuration every model is built with; its σ also scales the
  /// grace time and the consolidator's thresholds.
  [[nodiscard]] const IdlenessModelConfig& config() const { return config_; }

  /// The model of `vm`, created on first use.
  [[nodiscard]] IdlenessModel& model(sim::VmId vm);
  [[nodiscard]] const IdlenessModel* find(sim::VmId vm) const;

  /// Feed the fully elapsed hour `h` of every placed VM into its model.
  /// Requires Cluster::account_hour(h) to have run (the quanta ledgers
  /// must describe hour `h`).
  void observe_hour(const sim::Cluster& cluster, std::int64_t h);

  /// IP of a VM for the hour addressed by `c` (raw 0 for unknown VMs —
  /// "undetermined behaviour").
  [[nodiscard]] IdlenessProbability vm_ip(sim::VmId vm,
                                          const util::CalendarTime& c) const;

  /// A server's IP is "the average of its VMs' IPs" (§III).  Hosts with no
  /// VM report raw 0.
  [[nodiscard]] IdlenessProbability host_ip(const sim::Host& host,
                                            const util::CalendarTime& c) const;

  /// Width of the host's VM-IP range (max − min raw IP); 0 for <2 VMs.
  /// Drives the opportunistic 7σ consolidation step (§III-D).
  [[nodiscard]] double host_ip_range(const sim::Host& host,
                                     const util::CalendarTime& c) const;

 private:
  IdlenessModelConfig config_;
  mutable std::vector<std::unique_ptr<IdlenessModel>> models_;  // indexed by VmId
};

}  // namespace drowsy::core

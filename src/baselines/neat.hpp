// OpenStack-Neat-style dynamic VM consolidation (Beloglazov & Buyya).
//
// The paper's comparison baseline (§VI).  Neat splits consolidation into
// four sub-problems (§III-D): (1) underload detection, (2) overload
// detection, (3) VM selection, (4) VM placement.  This implementation
// runs Neat's default pair plus its placement:
//   overload:  THR (static utilization threshold);
//   selection: MMT (minimum migration time);
//   placement: PABFD (power-aware best-fit decreasing).
// Underload handling follows Neat's practice: starting from the least
// utilized host, try to evacuate all of its VMs to other active hosts
// without overloading them.
#pragma once

#include <cstdint>
#include <vector>

#include "core/consolidation.hpp"
#include "sim/cluster.hpp"

namespace drowsy::baselines {

/// Neat as a pluggable consolidation policy.
class NeatConsolidation final : public core::ConsolidationPolicy {
 public:
  explicit NeatConsolidation(sim::Cluster& cluster) : cluster_(cluster) {}

  void run_hour(std::int64_t next_hour) override;

  /// THR overload verdict on a host utilization.
  [[nodiscard]] static bool overloaded(double util) {
    return util > core::kOverloadUtilization;
  }

 private:
  [[nodiscard]] std::vector<sim::Vm*> select_vms(sim::Host& host,
                                                 std::int64_t next_hour);
  /// Power-aware best-fit-decreasing placement of `vms`; `exclude` is
  /// not a candidate.
  void place_pabfd(std::vector<sim::Vm*>& vms, std::int64_t next_hour,
                   const sim::Host* exclude);

  sim::Cluster& cluster_;
};

}  // namespace drowsy::baselines

// Staggered-wake planner (the DrowsyNetBatch policy arm).
//
// At each hour boundary it pre-wakes suspended hosts whose resident VMs
// are predicted active in the coming hour, releasing WoL magic packets
// through the modeled SDN switch (net::SdnSwitch::send_wol) spaced by
// kWakeStagger, with at most kWakeMaxInFlight concurrent resumes, but
// never holding a wake longer than kWakeAdmissionWindow.
//
// Determinism: all state advances in event order on the one queue; the
// planner iterates hosts in id order.  The (spec, policy, seed) contract
// of scenario runs is preserved.
#pragma once

#include <cstdint>
#include <functional>

#include "net/sdn_switch.hpp"
#include "sim/cluster.hpp"
#include "util/sim_time.hpp"

namespace drowsy::netsim {

/// Planner admission (see the header comment).
inline constexpr int kWakeMaxInFlight = 2;
inline constexpr util::SimTime kWakeStagger = 200;  ///< ms
inline constexpr util::SimTime kWakeAdmissionWindow = util::seconds(5);

class WakeFabric {
 public:
  /// Should `host` be woken ahead of `hour`?  The scenario layer wires
  /// this to the controller's idleness models (core::ModelBuilder), so
  /// netsim itself never depends on the core layer.
  using ActivityPredictor = std::function<bool(const sim::Host&, std::int64_t hour)>;

  WakeFabric(sim::Cluster& cluster, net::SdnSwitch& sw, ActivityPredictor predictor);

  /// Planner hook; drive from scenario::run_one's on_hour_end callback.
  void on_hour_end(std::int64_t hour);

 private:
  sim::Cluster& cluster_;
  net::SdnSwitch& switch_;
  ActivityPredictor predictor_;
};

}  // namespace drowsy::netsim

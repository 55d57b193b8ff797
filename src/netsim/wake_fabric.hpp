// Staggered-wake planner (the DrowsyNetBatch policy arm).
//
// At each hour boundary it pre-wakes suspended hosts whose resident VMs
// are predicted active in the coming hour, releasing net::WolSender magic
// packets through the modeled SDN switch spaced by `wake_stagger`, with
// at most `wake_max_in_flight` concurrent resumes, but never holding a
// wake longer than `wake_admission_window`.
//
// Determinism: all state advances in event order on the one queue; the
// planner iterates hosts in id order.  The (spec, policy, seed) contract
// of scenario runs is preserved.
#pragma once

#include <cstdint>
#include <functional>

#include "net/sdn_switch.hpp"
#include "net/wol.hpp"
#include "sim/cluster.hpp"
#include "util/sim_time.hpp"

namespace drowsy::netsim {

/// Planner knobs (the scenario layer fills this from its serialized
/// NetSpec; keeping the struct here leaves netsim usable without the
/// scenario layer).
struct FabricConfig {
  int wake_max_in_flight = 2;
  util::SimTime wake_stagger = 200;                      ///< ms between releases
  util::SimTime wake_admission_window = util::seconds(5);  ///< max hold per wake
};

class WakeFabric {
 public:
  /// Should `host` be woken ahead of `hour`?  The scenario layer wires
  /// this to the controller's idleness models (core::ModelBuilder), so
  /// netsim itself never depends on the core layer.
  using ActivityPredictor = std::function<bool(const sim::Host&, std::int64_t hour)>;

  WakeFabric(sim::Cluster& cluster, net::SdnSwitch& sw, FabricConfig config,
             ActivityPredictor predictor);

  /// Planner hook; drive from scenario::run_one's on_hour_end callback.
  void on_hour_end(std::int64_t hour);

  /// WoL frames the planner injected.
  [[nodiscard]] std::uint64_t wol_frames() const { return wol_.sent_count(); }

 private:
  sim::Cluster& cluster_;
  FabricConfig config_;
  net::WolSender wol_;
  ActivityPredictor predictor_;
};

}  // namespace drowsy::netsim

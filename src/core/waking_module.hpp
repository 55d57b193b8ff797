// The waking module — paper §V.
//
// Lives on the (never-sleeping) SDN switch.  Two wake triggers:
//  (a) inbound network request: a lightweight packet analyzer checks every
//      frame against a map of VM IPs → drowsy hosts (a vector by VM index)
//      and sends a Wake-on-LAN magic packet when the host is suspended;
//  (b) scheduled waking date: the suspending module registers the earliest
//      relevant guest timer before suspending; the waking module sends the
//      WoL *ahead of time* so the host is up when the timer fires.
//
// Fault tolerance: modules are deployed in mirrored pairs.  Every
// registration is forwarded to the standby; a heartbeat monitor promotes
// the standby when the primary dies (net::MirroredPair provides the
// detection machinery; the promote callback calls activate() here, which
// installs the standby's analyzer: until then it analyzes no frame).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "net/sdn_switch.hpp"
#include "sim/cluster.hpp"

namespace drowsy::core {

/// Wake statistics for the evaluation.
struct WakingStats {
  std::uint64_t packet_wakes = 0;     ///< WoLs triggered by inbound requests
  std::uint64_t scheduled_wakes = 0;  ///< WoLs triggered by waking dates
  std::uint64_t analyzed_packets = 0;
};

/// One waking module instance (primary or standby).
class WakingModule {
 public:
  /// `name` identifies the instance in logs ("waking-rack0-primary").  A
  /// new instance is an inactive standby: it analyzes no frame.
  WakingModule(sim::Cluster& cluster, net::SdnSwitch& sw, std::string name);

  /// Put the module on duty (the primary at install, a standby at
  /// heartbeat failover).  The first call installs its packet analyzer on
  /// the switch, which therefore runs after those installed before.
  void activate();
  /// Demote (crash simulation: a dead module analyzes, but sends nothing).
  void deactivate() { active_ = false; }
  [[nodiscard]] bool active() const { return active_; }

  /// Mirror every registration into `standby` (the paper's state
  /// mirroring between paired modules).
  void set_mirror(WakingModule* standby) { mirror_ = standby; }

  /// The suspending module calls this just before its host suspends: the
  /// VM→MAC map is refreshed ("mappings are only updated when a host is
  /// suspended") and the waking date registered.  `wake_date` may be
  /// kNever when no relevant timer exists.
  void on_host_suspending(const sim::Host& host, util::SimTime wake_date);

  /// Clears the pending-WoL guard once the host is up again.
  void on_host_resumed(const sim::Host& host);

  [[nodiscard]] const WakingStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Number of live entries in the VM→host map (observability).
  [[nodiscard]] std::size_t vm_map_size() const {
    return vm_to_host_.size() - std::ranges::count(vm_to_host_, kNoHost);
  }

 private:
  static constexpr sim::HostId kNoHost = UINT32_MAX;

  void analyze(const net::Packet& packet);
  void fire_scheduled(util::SimTime due, sim::HostId host_id);

  sim::Cluster& cluster_;
  net::SdnSwitch& switch_;
  std::string name_;
  bool active_ = false;
  bool analyzing_ = false;  ///< the analyzer is installed
  WakingModule* mirror_ = nullptr;
  WakingStats stats_;

  /// By VM index: the drowsy server hosting it, kNoHost if unknown (§V-A).
  std::vector<sim::HostId> vm_to_host_;
  /// By host id: a WoL is already in flight (avoid one WoL per frame).
  std::vector<bool> wol_pending_;
};

}  // namespace drowsy::core

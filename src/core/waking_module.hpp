// The waking module — paper §V.
//
// Lives on the (never-sleeping) SDN switch.  Two wake triggers:
//  (a) inbound network request: a lightweight packet analyzer checks every
//      frame against a hashmap of VM IPs → drowsy-host MACs and sends a
//      Wake-on-LAN magic packet when the destination server is suspended;
//  (b) scheduled waking date: the suspending module registers the earliest
//      relevant guest timer before suspending; the waking module sends the
//      WoL *ahead of time* so the host is up when the timer fires.
//
// Fault tolerance: modules are deployed in mirrored pairs.  Every
// registration is forwarded to the standby; a heartbeat monitor promotes
// the standby when the primary dies (net::MirroredPair provides the
// detection machinery; the promote callback calls activate() here).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/config.hpp"
#include "net/sdn_switch.hpp"
#include "net/wol.hpp"
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
  /// `name` identifies the instance in logs ("waking-rack0-primary").
  WakingModule(sim::Cluster& cluster, net::SdnSwitch& sw, WakingConfig config,
               std::string name, bool active = true);

  /// Install the packet analyzer on the switch.  Call once per instance;
  /// inactive (standby) instances observe but do not send WoL.
  void install_analyzer();

  /// Promote a standby to active duty (heartbeat failover).
  void activate() { active_ = true; }
  /// Demote (crash simulation: a dead module sends nothing).
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
  [[nodiscard]] std::size_t vm_map_size() const { return vm_to_host_.size(); }

 private:
  void analyze(const net::Packet& packet);
  void fire_scheduled(util::SimTime due, net::MacAddress mac);
  void send_wol(net::MacAddress mac);
  [[nodiscard]] sim::Host* host_by_mac(const net::MacAddress& mac);

  sim::Cluster& cluster_;
  net::SdnSwitch& switch_;
  WakingConfig config_;
  std::string name_;
  bool active_;
  WakingModule* mirror_ = nullptr;
  net::WolSender wol_;
  WakingStats stats_;

  /// VM IP → MAC of the drowsy server hosting it (paper §V-A).
  std::unordered_map<net::Ipv4, net::MacAddress> vm_to_host_;
  /// Scheduled waking dates → host MACs (paper §V-B).
  std::multimap<util::SimTime, net::MacAddress> schedule_;
  /// Hosts with a WoL already in flight (avoid one WoL per frame).
  std::unordered_set<net::MacAddress> wol_pending_;
  /// MAC → host id, learned as hosts suspend.
  std::unordered_map<net::MacAddress, sim::HostId> mac_index_;
};

}  // namespace drowsy::core

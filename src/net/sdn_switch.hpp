// Software-defined-network switch model.
//
// The paper locates the waking module "on the software defined network
// (SDN) switch" (§V): every frame traverses the switch, where a
// "lightweight packet analyzer" can inspect it before forwarding.  This
// model reproduces that interposition point: ports are registered by MAC,
// a forwarding table maps VM IPs to host MACs, and analyzers see every
// frame first.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/addr.hpp"
#include "obs/event_tag.hpp"
#include "util/inline_fn.hpp"
#include "util/sim_time.hpp"

namespace drowsy::net {

/// Deferred-execution interface the network uses to model latency.  The
/// discrete-event simulator implements this.  Callbacks travel as
/// util::InlineFn (the event core's small-buffer payload type) so a frame
/// delivery scheduled through this interface lands in the slab event
/// record without a std::function allocation; lambdas convert implicitly.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;
  /// Run `fn` after `delay` of simulated time.
  virtual void schedule_after(util::SimTime delay, util::InlineFn fn) = 0;
  /// Tagged variant for event-core profiling (obs::EventTag attribution).
  /// Default drops the tag and forwards, so dispatchers that don't
  /// profile need no changes; sim::EventQueue and
  /// netsim::EventQueueDispatcher override it to carry the tag through.
  virtual void schedule_after(util::SimTime delay, util::InlineFn fn,
                              obs::EventTag /*tag*/) {
    schedule_after(delay, std::move(fn));
  }
  /// Current simulated instant.
  [[nodiscard]] virtual util::SimTime now() const = 0;
};

/// A switch port: frames addressed to `mac` are handed to `deliver`.
struct Port {
  MacAddress mac{};
  std::function<void(const Packet&)> deliver;
};

/// Packet analyzers observe every frame before it is forwarded; none can
/// consume it (the waking module observes and lets through).
using PacketAnalyzer = std::function<void(const Packet&)>;

/// The SDN switch.
class SdnSwitch {
 public:
  explicit SdnSwitch(Dispatcher& dispatcher, util::SimTime port_latency = 0);

  /// Attach a port; frames to `mac` are delivered there.
  void attach_port(MacAddress mac, std::function<void(const Packet&)> deliver);
  void detach_port(const MacAddress& mac);

  /// Bind a VM IP to the MAC of its hosting server.  The paper updates
  /// these mappings "only when a host is suspended" — callers decide when.
  void bind_ip(Ipv4 ip, MacAddress host_mac);
  void unbind_ip(Ipv4 ip);
  [[nodiscard]] const MacAddress* lookup_ip(Ipv4 ip) const;

  /// Install a packet analyzer (e.g. the waking module); analyzers run in
  /// installation order.
  void add_analyzer(PacketAnalyzer analyzer);

  /// Inject a frame into the switch.  IP-addressed frames resolve through
  /// the forwarding table; WoL frames are L2-addressed via dst_mac.
  /// Returns false if the frame could not be forwarded (unknown address).
  bool inject(const Packet& packet);

  [[nodiscard]] std::uint64_t forwarded_count() const { return forwarded_; }
  /// Frames with no route (unbound IP) or no port (unknown MAC).
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_; }

 private:
  bool deliver_to_mac(const MacAddress& mac, const Packet& packet);

  using Deliver = std::function<void(const Packet&)>;

  Dispatcher& dispatcher_;
  util::SimTime port_latency_;
  /// Shared, so a queued delivery keeps its port's callback alive past a
  /// detach, and captures 16 bytes instead of a whole std::function.
  std::unordered_map<MacAddress, std::shared_ptr<const Deliver>> ports_;
  std::unordered_map<Ipv4, MacAddress> forwarding_;
  std::vector<PacketAnalyzer> analyzers_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace drowsy::net

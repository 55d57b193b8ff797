// Software-defined-network switch model.
//
// The paper locates the waking module "on the software defined network
// (SDN) switch" (§V): every frame traverses the switch, where a
// "lightweight packet analyzer" can inspect it before forwarding.  This
// model reproduces that interposition point: ports are registered by MAC
// (a vector by the host index each MAC encodes), analyzers see every frame
// first, and each frame goes to the port of its dst_mac.  The sender
// resolves a request's VM IP to its host's MAC (the VM→server mapping
// lives in sim::Cluster alone); the IP stays on the frame for the
// analyzers and the receiving host.  Frames leave
// through one serializing egress pipe, so a burst of simultaneous WoL
// wakes (the wake-storm case) queues behind itself and later frames pay a
// measurable queueing delay.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/addr.hpp"
#include "obs/event_tag.hpp"
#include "util/inline_fn.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

namespace drowsy::net {

/// Deferred-execution interface the network uses to model latency.  The
/// discrete-event simulator implements this.  Callbacks travel as
/// util::InlineFn (the event core's small-buffer payload type) so a frame
/// delivery scheduled through this interface lands in the slab event
/// record without a std::function allocation; lambdas convert implicitly.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;
  /// Run `fn` after `delay` of simulated time, attributed to `tag` in
  /// event-core profiles.
  virtual void schedule_after(util::SimTime delay, util::InlineFn fn,
                              obs::EventTag tag) = 0;
  /// Current simulated instant.
  [[nodiscard]] virtual util::SimTime now() const = 0;
  /// Whether a callback scheduled now with zero delay would be the very
  /// next event to run, so running it in place changes nothing.  The
  /// default never claims so, and every frame is queued.
  [[nodiscard]] virtual bool would_run_next() const { return false; }
};

/// Packet analyzers observe every frame before it is forwarded; none can
/// consume it (the waking module observes and lets through).
using PacketAnalyzer = std::function<void(const Packet&)>;

/// The SDN switch.  Deterministic: the egress pipe's state is one
/// `busy_until` watermark advanced in event order.
class SdnSwitch {
 public:
  /// Each frame occupies the egress pipe for `serialization` once the
  /// pipe is free, then takes `port_latency` to reach its port.  With
  /// both 0 a frame is queued for now(), in the order it was injected.
  explicit SdnSwitch(Dispatcher& dispatcher, util::SimTime port_latency = 0,
                     util::SimTime serialization = 0);

  /// Attach a port; frames to `mac` (a MacAddress::for_host) are
  /// delivered there.  A MAC takes one port, for the switch's lifetime.
  void attach_port(MacAddress mac, std::function<void(const Packet&)> deliver);

  /// Install a packet analyzer (e.g. the waking module); analyzers run in
  /// installation order.
  void add_analyzer(PacketAnalyzer analyzer);

  /// Inject a frame into the switch: the analyzers see it, then it goes
  /// to the port of its dst_mac, whatever its kind.  Returns false if no
  /// port has that MAC (the frame is a counted drop).
  /// With zero port latency and serialization, a request frame is
  /// delivered before inject returns when the dispatcher says it would
  /// run next (Dispatcher::would_run_next), so an event handler that
  /// injects a request must do it last.
  bool inject(const Packet& packet);

  /// Wake-on-LAN (paper §V-A): send a magic packet to `mac`.  The NIC
  /// stays powered in S3 (the paper cites the Intel I350's ability to
  /// keep the link up), so the frame reaches the sleeping host and
  /// triggers its resume path.  Returns false if no port has `mac`.
  bool send_wol(MacAddress mac);

  [[nodiscard]] std::uint64_t forwarded_count() const { return forwarded_; }
  /// Frames whose dst_mac is no attached port.
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_; }
  /// WoL magic packets sent through send_wol.
  [[nodiscard]] std::uint64_t wol_frames() const { return wol_frames_; }
  /// p99 of the time frames waited for the egress pipe, sampled only
  /// over frames that found it busy (excludes the frame's own
  /// serialization and port latency); 0 when the pipe never saturated.
  [[nodiscard]] double queue_delay_p99_ms() const {
    return queue_delay_ms_.empty() ? 0.0 : queue_delay_ms_.quantile(0.99);
  }

 private:
  using Deliver = std::function<void(const Packet&)>;

  Dispatcher& dispatcher_;
  util::SimTime port_latency_;
  util::SimTime serialization_;
  util::SimTime busy_until_ = 0;
  /// Port callbacks by host index, null where none is attached.  Ports
  /// never detach and each callback has its own allocation, so a queued
  /// delivery captures a pointer to it, not a copy.
  std::vector<std::unique_ptr<const Deliver>> ports_;
  std::vector<PacketAnalyzer> analyzers_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t wol_frames_ = 0;
  util::SampleSet queue_delay_ms_;
};

}  // namespace drowsy::net

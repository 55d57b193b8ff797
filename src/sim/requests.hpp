// Client request fabric and SLA tracking.
//
// Models the paper's CloudSuite client simulators (§VI-A-2): each VM
// receives requests at a rate proportional to its hourly trace activity.
// Requests travel through the SDN switch (where the waking module's packet
// analyzer sees them); a request for a VM on a suspended host completes
// only after the host resumes, which is exactly the ≈0.8–1.5 s wake
// penalty the paper reports.  Each completion is counted against the SLA
// bound (≥99 % of web-search requests under 200 ms) and only wake
// latencies are kept as samples; add_on_complete() sees every latency.
//
// A request frame crosses the switch in the millisecond it is sent.
// When nothing else is due in that millisecond, the frame would be the
// queue's next event, so the switch delivers it in place
// (net::Dispatcher::would_run_next): an arrival costs one stream entry,
// not a stream entry and a frame event.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/sdn_switch.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace drowsy::sim {

/// Request-generation and service-time parameters.
struct RequestConfig {
  double base_rate_per_hour = 120.0;  ///< arrival rate at activity 1.0
  double service_ms_mean = 60.0;      ///< in-VM service time
  double service_ms_jitter = 30.0;    ///< +/- uniform jitter
  double sla_ms = 200.0;              ///< CloudSuite web-search bound
  std::uint64_t seed = 7;
};

/// Per-experiment request statistics.
struct RequestStats {
  util::SampleSet wake_latencies_ms;  ///< completed requests that found the host asleep
  std::uint64_t total = 0;            ///< completed requests
  std::uint64_t within_sla = 0;       ///< completed with latency <= RequestConfig::sla_ms
  std::uint64_t woke_host = 0;
  /// Frames that reached a host their VM left while they were in flight.
  std::uint64_t lost = 0;

  /// Fraction of completed requests within the SLA; 1 with none.
  [[nodiscard]] double sla_attainment() const {
    if (total == 0) return 1.0;
    return static_cast<double>(within_sla) / static_cast<double>(total);
  }
};

/// Drives request traffic for every VM of a cluster through a switch.
///
/// An hour's arrivals are all drawn when the hour is scheduled, so they go
/// to the event queue as one pre-sequenced stream (EventQueue::set_stream)
/// rather than as an event each: a reused buffer of {at, k} entries sorted
/// by (at, k), beside the k-ordered destinations.
class RequestFabric final : private EventQueue::StreamHandler {
 public:
  RequestFabric(Cluster& cluster, net::SdnSwitch& sw, RequestConfig config = {});

  /// Register every host's NIC port with the switch.  Call once, after
  /// the hosts are added.  Request frames need no further wiring: each is
  /// addressed to its VM's current host (Cluster::host_of) when sent.
  void wire_ports();

  /// Schedule the Poisson arrivals of hour `h` for every placed VM.  The
  /// previous hour's arrivals must all have dispatched.
  void schedule_hour(std::int64_t h);

  [[nodiscard]] const RequestStats& stats() const { return stats_; }
  [[nodiscard]] const RequestConfig& config() const { return config_; }

  /// Append an observer invoked at every request completion with the
  /// completion instant, end-to-end latency and whether the request had
  /// to wake its host.  Composes like Host::add_on_wake (installation
  /// order, nothing displaced).  The timeline exporter uses this to stamp
  /// SLA violations (latency > config().sla_ms) in sim time.
  void add_on_complete(
      std::function<void(util::SimTime at, double latency_ms, bool woke)> hook) {
    on_complete_.push_back(std::move(hook));
  }

 private:
  /// Inject the hour's k-th arrival (in draw order) into the switch.
  void fire(std::uint32_t k) override;
  void deliver(HostId host_id, const net::Packet& packet);
  void complete(util::SimTime arrival, bool woke);

  Cluster& cluster_;
  net::SdnSwitch& switch_;
  RequestConfig config_;
  util::Rng rng_;
  RequestStats stats_;
  std::uint64_t next_packet_id_ = 1;
  // The scheduled hour: arrival k goes to arrival_dst_[k] as packet
  // arrival_id0_ + k; arrivals_ is the queue's stream, sorted through
  // sort_scratch_.
  std::vector<EventQueue::StreamEntry> arrivals_;
  std::vector<EventQueue::StreamEntry> sort_scratch_;
  std::vector<net::Ipv4> arrival_dst_;
  std::uint64_t arrival_id0_ = 0;
  std::vector<std::function<void(util::SimTime, double, bool)>> on_complete_;
};

}  // namespace drowsy::sim

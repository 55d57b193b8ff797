#include "netsim/wake_fabric.hpp"

#include <algorithm>
#include <vector>

namespace drowsy::netsim {

WakeFabric::WakeFabric(sim::Cluster& cluster, net::SdnSwitch& sw, FabricConfig config,
                       ActivityPredictor predictor)
    : cluster_(cluster), config_(config), wol_(sw), predictor_(std::move(predictor)) {}

void WakeFabric::on_hour_end(std::int64_t hour) {
  // Called at the hour boundary, after consolidation for `hour + 1` ran.
  // Pre-wake parked hosts whose residents are predicted active in the
  // coming hour: the storm's first requests then find the host in S0
  // instead of each paying the resume latency (plus, under contention,
  // the switch queueing delay of a synchronized WoL burst).
  const std::int64_t next = hour + 1;
  const util::SimTime now = cluster_.queue().now();
  std::vector<util::SimTime> in_flight;  // resume completion times
  util::SimTime slot = now;
  for (const auto& host_ptr : cluster_.hosts()) {
    sim::Host* host = host_ptr.get();
    if (host->state() == sim::PowerState::S0) continue;
    if (!predictor_(*host, next)) continue;

    util::SimTime release = slot;
    // Admission: at most wake_max_in_flight overlapping resumes...
    auto active_at = [&](util::SimTime t) {
      int active = 0;
      for (const util::SimTime end : in_flight) {
        if (end > t) ++active;
      }
      return active;
    };
    while (active_at(release) >= config_.wake_max_in_flight) {
      util::SimTime soonest = util::kNever;
      for (const util::SimTime end : in_flight) {
        if (end > release) soonest = std::min(soonest, end);
      }
      release = soonest;
    }
    // ...but never hold a wake past the admission window.
    release = std::min(release, now + config_.wake_admission_window);

    in_flight.push_back(release + host->resume_remaining());
    slot = release + config_.wake_stagger;
    cluster_.queue().schedule_at(
        release,
        [this, host] {
          // The hour's first request may have raced us awake already.
          if (host->state() == sim::PowerState::S0) return;
          wol_.send(host->mac());
        },
        obs::EventTag::Wake);
  }
}

}  // namespace drowsy::netsim

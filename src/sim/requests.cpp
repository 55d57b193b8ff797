#include "sim/requests.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

#include "util/log.hpp"

namespace drowsy::sim {

namespace {

/// Stable LSD radix sort of `entries` by `at - base`, which must lie in
/// [0, 2^24): three counting passes of 8 bits.  `scratch` is reused.
void sort_by_offset(std::vector<EventQueue::StreamEntry>& entries,
                    std::vector<EventQueue::StreamEntry>& scratch, util::SimTime base) {
  if (entries.size() < 2) return;
  scratch.resize(entries.size());
  for (int shift = 0; shift < 24; shift += 8) {
    std::array<std::uint32_t, 256> start{};
    for (const auto& e : entries) ++start[((e.at - base) >> shift) & 0xff];
    std::uint32_t sum = 0;
    for (auto& c : start) sum += std::exchange(c, sum);
    for (const auto& e : entries) scratch[start[((e.at - base) >> shift) & 0xff]++] = e;
    entries.swap(scratch);
  }
}

}  // namespace

RequestFabric::RequestFabric(Cluster& cluster, net::SdnSwitch& sw, RequestConfig config)
    : cluster_(cluster), switch_(sw), config_(config), rng_(config.seed) {}

void RequestFabric::wire_ports() {
  for (const auto& host : cluster_.hosts()) {
    const HostId id = host->id();
    switch_.attach_port(host->mac(),
                        [this, id](const net::Packet& p) { deliver(id, p); });
  }
}

void RequestFabric::schedule_hour(std::int64_t h) {
  EventQueue& q = cluster_.queue();
  const util::SimTime hour_start = h * util::kMsPerHour;
  assert(hour_start >= q.now());
  arrivals_.clear();
  arrival_dst_.clear();
  arrival_id0_ = next_packet_id_;
  for (const auto& vm : cluster_.vms()) {
    if (cluster_.host_of(vm->id()) == nullptr) continue;
    const double activity = vm->activity_at_hour(h);
    if (activity <= kern::kNoiseFloor) continue;
    const double expected = config_.base_rate_per_hour * activity;
    // Poisson arrivals realized as exponential inter-arrival gaps.
    double t_ms = 0.0;
    for (;;) {
      t_ms += rng_.exponential(expected / static_cast<double>(util::kMsPerHour));
      if (t_ms >= static_cast<double>(util::kMsPerHour)) break;
      const auto k = static_cast<std::uint32_t>(arrival_dst_.size());
      arrivals_.push_back({hour_start + static_cast<util::SimTime>(t_ms), k});
      arrival_dst_.push_back(vm->ip());
    }
  }
  next_packet_id_ += arrival_dst_.size();
  // The entries are in k order and each VM's arrivals in time order, so a
  // stable sort on the offset into the hour yields (at, k): the (at, seq)
  // order that queuing them one by one would give.  An hour's offsets fit
  // 22 bits, so three counting passes beat a comparison sort.
  static_assert(util::kMsPerHour <= (1 << 24));
  sort_by_offset(arrivals_, sort_scratch_, hour_start);
  q.set_stream(arrivals_, *this, obs::EventTag::Request);
}

void RequestFabric::fire(std::uint32_t k) {
  net::Packet p;
  p.kind = net::PacketKind::Request;
  p.dst = arrival_dst_[k];
  // Addressed to the VM's host as of now; an unplaced VM's frame keeps
  // the null MAC and is dropped.
  if (const Host* host = cluster_.host_of(p.dst.vm_index())) p.dst_mac = host->mac();
  p.id = arrival_id0_ + k;
  switch_.inject(p);
}

void RequestFabric::deliver(HostId host_id, const net::Packet& packet) {
  if (packet.kind == net::PacketKind::WakeOnLan) {
    Host* host = cluster_.host(host_id);
    assert(host != nullptr);
    host->begin_resume();
    return;
  }
  Vm* vm = cluster_.vm_by_ip(packet.dst);
  Host* host = cluster_.host(host_id);
  assert(host != nullptr);
  if (vm == nullptr || cluster_.host_of(vm->id()) != host) {
    ++stats_.lost;  // the VM migrated away while the frame was in flight
    return;
  }
  // Latency clock: the switch stamped sent_at when the client sent the
  // frame, so switch traversal (port latency, queueing) counts.
  assert(packet.sent_at >= 0);
  const util::SimTime arrival = packet.sent_at;
  if (host->state() == PowerState::S0) {
    complete(arrival, false);
  } else {
    host->when_awake([this, arrival] { complete(arrival, true); });
  }
}

void RequestFabric::complete(util::SimTime arrival, bool woke) {
  const double service =
      config_.service_ms_mean +
      rng_.uniform(-config_.service_ms_jitter, config_.service_ms_jitter);
  const double latency =
      static_cast<double>(cluster_.queue().now() - arrival) + std::max(1.0, service);
  ++stats_.total;
  if (latency <= config_.sla_ms) ++stats_.within_sla;
  if (woke) {
    ++stats_.woke_host;
    stats_.wake_latencies_ms.add(latency);
  }
  for (const auto& hook : on_complete_) hook(cluster_.queue().now(), latency, woke);
}

}  // namespace drowsy::sim

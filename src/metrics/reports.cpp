#include "metrics/reports.hpp"

#include <cstdio>

namespace drowsy::metrics {

SuspendFractionRow suspend_fractions(const std::string& algorithm, sim::Cluster& cluster,
                                     const std::vector<sim::HostId>& hosts,
                                     util::SimTime window_start) {
  SuspendFractionRow row;
  row.algorithm = algorithm;
  double total_s3 = 0.0;
  double total_window = 0.0;
  for (sim::HostId id : hosts) {
    sim::Host* h = cluster.host(id);
    h->account_now();
    row.per_host.push_back(h->suspended_fraction(window_start));
    total_s3 += static_cast<double>(h->time_in(sim::PowerState::S3));
    total_window += static_cast<double>(cluster.queue().now() - window_start);
  }
  row.global = total_window > 0.0 ? total_s3 / total_window : 0.0;
  return row;
}

EnergySummary summarize(const std::string& algorithm, sim::Cluster& cluster,
                        const sim::RequestFabric& fabric) {
  EnergySummary s;
  s.algorithm = algorithm;
  s.kwh = cluster.total_kwh();
  const auto& stats = fabric.stats();
  s.requests = stats.total;
  s.wakes = stats.woke_host;
  s.sla_attainment = stats.sla_attainment(fabric.config().sla_ms);
  if (!stats.wake_latencies_ms.empty()) {
    s.wake_latency_p99_ms = stats.wake_latencies_ms.quantile(0.99);
  }
  s.migrations = cluster.total_migrations();
  return s;
}

std::string energy_table(const std::vector<EnergySummary>& rows) {
  std::string out =
      "Algorithm            kWh   SLA(<=bound)  wake-p99(ms)  requests     wakes  "
      "migrations\n";
  char buf[160];
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof(buf), "%-16s %7.2f   %10.2f%%  %12.0f  %8llu  %8llu  %10d\n",
                  r.algorithm.c_str(), r.kwh, 100.0 * r.sla_attainment,
                  r.wake_latency_p99_ms, static_cast<unsigned long long>(r.requests),
                  static_cast<unsigned long long>(r.wakes), r.migrations);
    out += buf;
  }
  return out;
}

}  // namespace drowsy::metrics

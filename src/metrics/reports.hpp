// Run summaries read from live cluster state: per-host suspended-time
// fractions and the energy/SLA outcome that scenario::harvest copies into
// a RunResult, plus a plain-text energy table for the examples.
#pragma once

#include <string>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/requests.hpp"
#include "util/sim_time.hpp"

namespace drowsy::metrics {

/// Per-host suspended-time fractions over [window_start, now], plus the
/// global fraction.
struct SuspendFractionRow {
  std::string algorithm;
  std::vector<double> per_host;  ///< fraction in [0, 1]
  double global = 0.0;
};

/// Compute a row from live cluster state.  `hosts` selects which hosts
/// appear (the paper reports the resource pool P2–P5 only).
[[nodiscard]] SuspendFractionRow suspend_fractions(
    const std::string& algorithm, sim::Cluster& cluster,
    const std::vector<sim::HostId>& hosts, util::SimTime window_start);

/// One experiment's energy/SLA outcome.
struct EnergySummary {
  std::string algorithm;
  double kwh = 0.0;
  double sla_attainment = 0.0;    ///< fraction of requests within the SLA
  double wake_latency_p99_ms = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t wakes = 0;
  int migrations = 0;
};

[[nodiscard]] EnergySummary summarize(const std::string& algorithm,
                                      sim::Cluster& cluster,
                                      const sim::RequestFabric& fabric);

/// Render the summaries side by side.
[[nodiscard]] std::string energy_table(const std::vector<EnergySummary>& rows);

}  // namespace drowsy::metrics

// Full data-center deployment of Drowsy-DC (paper §II architecture).
//
//   $ ./datacenter_sim [hosts] [vms] [days]
//
// Builds a cluster with a mixed LLMU/LLMI population, deploys the
// controller (request fabric, mirrored waking modules, per-host suspend
// daemons, idleness-aware consolidation) and reports per-host suspension
// fractions, energy, SLA and migration statistics.
#include <cstdio>
#include <cstdlib>

#include "core/drowsy.hpp"
#include "trace/generators.hpp"

namespace core = drowsy::core;
namespace sim = drowsy::sim;
namespace net = drowsy::net;
namespace trace = drowsy::trace;
namespace util = drowsy::util;

int main(int argc, char** argv) {
  const int hosts = argc > 1 ? std::atoi(argv[1]) : 8;
  const int vms = argc > 2 ? std::atoi(argv[2]) : 16;
  const int days = argc > 3 ? std::atoi(argv[3]) : 7;
  std::printf("Drowsy-DC data center: %d hosts, %d VMs, %d simulated days\n\n", hosts, vms,
              days);

  sim::EventQueue queue;
  sim::Cluster cluster(queue);
  net::SdnSwitch sdn(queue);

  for (int i = 0; i < hosts; ++i) {
    cluster.add_host(sim::HostSpec{"host-" + std::to_string(i), 8, 16384, 2});
  }
  // Population: 25% LLMU (always busy), 75% LLMI with assorted periodic
  // patterns — roughly the private-cloud mix the paper targets.
  for (int i = 0; i < vms; ++i) {
    trace::ActivityTrace workload =
        (i % 4 == 0) ? trace::google_like_llmu({.years = 1, .seed = 100u + i})
                     : trace::random_llmi(200u + i, /*years=*/1);
    cluster.add_vm(sim::VmSpec{"vm-" + std::to_string(i), 2, 6144}, std::move(workload));
  }

  core::ControllerOptions options;
  options.requests.base_rate_per_hour = 60;
  core::Controller controller(cluster, sdn, options);
  controller.install();
  controller.place_all_unplaced();
  controller.pretrain_models(14 * util::kHoursPerDay);  // two weeks of history

  controller.run_hours(static_cast<std::int64_t>(days) * util::kHoursPerDay);

  std::printf("per-host time suspended:\n");
  for (const auto& host : cluster.hosts()) {
    host->account_now();
    std::printf("  %-8s  %5.1f%%   (%d suspends, %d resumes, %.2f kWh)\n",
                host->name().c_str(), 100.0 * host->suspended_fraction(0),
                host->suspend_count(), host->resume_count(), host->energy().kwh());
  }
  const sim::RequestStats& requests = controller.fabric().stats();
  const double sla_ms = controller.fabric().config().sla_ms;
  const double wake_p99_ms =
      requests.wake_latencies_ms.empty() ? 0.0 : requests.wake_latencies_ms.quantile(0.99);
  std::printf("\ntotal: %.2f kWh, SLA(<=%.0f ms) %.2f%%, wake p99 %.0f ms, %llu requests, "
              "%llu wakes, %d migrations\n",
              cluster.total_kwh(), sla_ms, 100.0 * requests.sla_attainment(),
              wake_p99_ms, static_cast<unsigned long long>(requests.total),
              static_cast<unsigned long long>(requests.woke_host), cluster.total_migrations());
  std::printf("\nwaking module: %llu packet wakes, %llu scheduled wakes\n",
              static_cast<unsigned long long>(controller.waking_primary().stats().packet_wakes),
              static_cast<unsigned long long>(
                  controller.waking_primary().stats().scheduled_wakes));
  return 0;
}

// Figure 2 — "Colocation percentage of each VM", plus the per-VM
// migration count, after 7 days of Drowsy-DC's periodic full relocation
// (§VI-A-1 methodology) on the "paper-testbed" registry scenario.
//
// Shape targets from the paper: V1/V2 (the LLMU pair) colocated for the
// large majority of the run; V3/V4 (identical workloads) colocated ≈76 %
// after at most one migration; migration counts in single digits.
//
// Still a bench rather than a study: the matrix is sampled at every
// simulated hour, and a RunResult carries no per-hour colocation.
#include <algorithm>
#include <cstdio>

#include "metrics/colocation.hpp"
#include "scenario/registry.hpp"

namespace metrics = drowsy::metrics;
namespace sc = drowsy::scenario;
namespace util = drowsy::util;

int main() {
  std::printf("== Figure 2: colocation percentage of each VM (7 days, Drowsy-DC) ==\n\n");
  const sc::ScenarioSpec& spec = sc::ScenarioRegistry::builtin().at("paper-testbed");
  const auto run = sc::build(spec, sc::Policy::DrowsyDc, spec.seed);
  run->controller->pretrain_models(static_cast<std::int64_t>(spec.pretrain_days) *
                                   util::kHoursPerDay);
  drowsy::sim::Cluster& cluster = run->cluster;
  metrics::ColocationMatrix matrix(cluster.vms().size());
  run->controller->run_hours(static_cast<std::int64_t>(spec.duration_days) *
                                 util::kHoursPerDay,
                             [&](std::int64_t) { matrix.sample(cluster); });

  std::printf("%s\n", matrix.to_table(cluster).c_str());

  std::printf("shape checks vs the paper:\n");
  std::printf("  V1-V2 (LLMU pair)        %5.1f%%  (paper: 85)\n", matrix.percent(0, 1));
  std::printf("  V3-V4 (same workload)    %5.1f%%  (paper: 76)\n", matrix.percent(2, 3));
  int max_migrations = 0;
  for (const auto& vm : cluster.vms()) {
    max_migrations = std::max(max_migrations, vm->migration_count());
  }
  std::printf("  max migrations per VM    %5d   (paper: 3)\n", max_migrations);
  std::printf("  total migrations         %5d\n", cluster.total_migrations());
  return 0;
}

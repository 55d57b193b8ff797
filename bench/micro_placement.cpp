// Micro-benchmarks for idleness-aware placement — the paper's §VII
// complexity claim: Drowsy-DC's per-VM models make consolidation O(n) in
// the number of VMs, versus O(n^2) for pairwise systems like Oasis.
#include <benchmark/benchmark.h>

#include <memory>

#include "baselines/oasis.hpp"
#include "core/consolidation.hpp"
#include "trace/generators.hpp"

namespace core = drowsy::core;
namespace sim = drowsy::sim;
namespace trace = drowsy::trace;
namespace util = drowsy::util;
namespace baselines = drowsy::baselines;

namespace {

struct World {
  sim::EventQueue queue;
  sim::Cluster cluster{queue};
  core::ModelBuilder models;

  explicit World(int vms) {
    const int hosts = (vms + 1) / 2;
    for (int i = 0; i < hosts; ++i) {
      cluster.add_host(sim::HostSpec{"H" + std::to_string(i), 8, 16384, 2});
    }
    for (int i = 0; i < vms; ++i) {
      auto& vm = cluster.add_vm(sim::VmSpec{"V" + std::to_string(i), 2, 6144},
                                trace::random_llmi(42u + i, 1));
      cluster.place(vm.id(), i % hosts);
    }
    // Two weeks of model history.
    for (std::int64_t h = 0; h < 14 * 24; ++h) {
      const auto when = util::calendar_of(h * util::kMsPerHour);
      for (const auto& vm : cluster.vms()) {
        const double a = vm->activity_at_hour(h);
        models.model(vm->id()).observe_hour(when, a > drowsy::kern::kNoiseFloor ? a : 0.0);
      }
    }
  }
};

void BM_InitialPlacementWeigher(benchmark::State& state) {
  World world(static_cast<int>(state.range(0)));
  core::IdlenessConsolidator consolidator(world.cluster, world.models);
  const auto& vm = *world.cluster.vms().front();
  const auto when = util::calendar_of(util::days(15));
  for (auto _ : state) {
    benchmark::DoNotOptimize(consolidator.initial_placement(vm, when));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InitialPlacementWeigher)->Arg(8)->Arg(32)->Arg(128)->Complexity();

void BM_DrowsyConsolidationRound(benchmark::State& state) {
  World world(static_cast<int>(state.range(0)));
  core::IdlenessConsolidator consolidator(world.cluster, world.models);
  consolidator.set_relocate_all_mode(true);
  std::int64_t hour = 15 * 24;
  for (auto _ : state) {
    consolidator.run_hour(hour++);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DrowsyConsolidationRound)->Arg(8)->Arg(32)->Arg(128)->Complexity();

void BM_OasisPairwiseRound(benchmark::State& state) {
  // The O(n^2) comparison point: Oasis recomputes all pairwise
  // co-idleness scores at each repack.
  World world(static_cast<int>(state.range(0)));
  // Repack every hour: the pairwise matcher runs every round.
  baselines::OasisConsolidation oasis(world.cluster, 1);
  // Feed the window.
  for (std::int64_t h = 1; h <= 24; ++h) oasis.run_hour(h);
  std::int64_t hour = 25;
  for (auto _ : state) {
    oasis.run_hour(hour++);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OasisPairwiseRound)->Arg(8)->Arg(32)->Arg(128)->Complexity();

void BM_HostIpAggregation(benchmark::State& state) {
  World world(64);
  const auto when = util::calendar_of(util::days(15));
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& host : world.cluster.hosts()) {
      acc += world.models.host_ip(*host, when).raw;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_HostIpAggregation);

}  // namespace

BENCHMARK_MAIN();

// Micro-benchmarks for the idleness model — the paper's "negligible
// overhead" claims (§III-C: the weight-learning precision "can be set to
// not incur any overhead in the consolidation system").
#include <benchmark/benchmark.h>

#include "core/controller.hpp"
#include "core/idleness_model.hpp"
#include "core/model_builder.hpp"
#include "net/sdn_switch.hpp"
#include "sim/cluster.hpp"
#include "trace/generators.hpp"
#include "util/sim_time.hpp"

namespace core = drowsy::core;
namespace trace = drowsy::trace;
namespace util = drowsy::util;

namespace {

core::IdlenessModel trained_model(bool learn_weights) {
  core::IdlenessModelConfig cfg;
  cfg.learn_weights = learn_weights;
  core::IdlenessModel model(cfg);
  trace::GenOptions o;
  o.years = 1;
  const auto tr = trace::daily_backup(o);
  for (std::int64_t h = 0; h < 30 * 24; ++h) {
    model.observe_hour(util::calendar_of(h * util::kMsPerHour),
                       tr.at_hour(static_cast<std::size_t>(h)));
  }
  return model;
}

void BM_IpComputation(benchmark::State& state) {
  const auto model = trained_model(true);
  const auto when = util::calendar_of(util::days(200));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ip(when).raw);
  }
}
BENCHMARK(BM_IpComputation);

void BM_ObserveHourNoWeightLearning(benchmark::State& state) {
  auto model = trained_model(false);
  std::int64_t h = 30 * 24;
  for (auto _ : state) {
    model.observe_hour(util::calendar_of(h * util::kMsPerHour), (h % 24) == 2 ? 0.8 : 0.0);
    ++h;
  }
}
BENCHMARK(BM_ObserveHourNoWeightLearning);

// The argument is weight_descent_steps, an upper bound: the descent also
// ends at |e| < 1e-15 or when a step leaves the weights' bits unchanged.
void BM_ObserveHourWithDescentSteps(benchmark::State& state) {
  core::IdlenessModelConfig cfg;
  cfg.weight_descent_steps = static_cast<std::size_t>(state.range(0));
  core::IdlenessModel model(cfg);
  std::int64_t h = 0;
  for (auto _ : state) {
    model.observe_hour(util::calendar_of(h * util::kMsPerHour), (h % 24) == 2 ? 0.8 : 0.0);
    ++h;
  }
}
BENCHMARK(BM_ObserveHourWithDescentSteps)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

// One VM-year through the production pretraining path
// (Controller::pretrain_models), from fresh models each iteration.  The
// per_vm_hour counter is the wall time per observed VM-hour.
void BM_PretrainVmYear(benchmark::State& state) {
  constexpr std::int64_t kHours = 365 * 24;
  drowsy::sim::EventQueue queue;
  drowsy::sim::Cluster cluster(queue);
  drowsy::net::SdnSwitch sw(queue);
  cluster.add_host(drowsy::sim::HostSpec{"P1", 16, 65536, 2});
  trace::GenOptions o;
  o.years = 1;
  cluster.add_vm(drowsy::sim::VmSpec{"V1", 2, 4096}, trace::nutanix_like(0, o));
  for (auto _ : state) {
    core::Controller controller(cluster, sw);
    controller.pretrain_models(kHours);
    benchmark::DoNotOptimize(controller.models().find(0)->weights()[0]);
  }
  state.counters["per_vm_hour"] = benchmark::Counter(
      kHours, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PretrainVmYear)->Unit(benchmark::kMillisecond);

void BM_ModelMemoryFootprintBuild(benchmark::State& state) {
  for (auto _ : state) {
    core::IdlenessModel model;
    benchmark::DoNotOptimize(model.weights()[0]);
  }
}
BENCHMARK(BM_ModelMemoryFootprintBuild);

}  // namespace

BENCHMARK_MAIN();

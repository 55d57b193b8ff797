// The paper's motivating example (§III-A): a national diploma-results
// website that is "mostly used at some specific hours (2 p.m., 3 p.m.) of
// a specific day (20th) of one month (July), every year".
//
//   $ ./seasonal_service
//
// The VM idles on a drowsy server for months; the idleness model learns
// the yearly pattern, the host sleeps through the off-season, and the
// inbound rush on July 20th wakes it via the packet analyzer.
#include <cstdio>

#include "core/drowsy.hpp"
#include "trace/generators.hpp"
#include "util/stats.hpp"

namespace core = drowsy::core;
namespace sim = drowsy::sim;
namespace net = drowsy::net;
namespace trace = drowsy::trace;
namespace util = drowsy::util;

int main() {
  sim::EventQueue queue;
  sim::Cluster cluster(queue);
  net::SdnSwitch sdn(queue);

  auto& host = cluster.add_host(sim::HostSpec{"results-host", 8, 16384, 2});
  trace::GenOptions options;
  options.years = 2;
  auto& vm = cluster.add_vm(sim::VmSpec{"diploma-results", 2, 6144},
                            trace::diploma_results(options));
  cluster.place(vm.id(), host.id());

  // Fast-forward to mid-June of year 1 *before* deploying, so the
  // measurement window below covers exactly the 60 simulated days.
  const std::int64_t start_hour =
      static_cast<std::int64_t>(util::kHoursPerYear) + 165 * util::kHoursPerDay;
  queue.run_until(start_hour * util::kMsPerHour);

  core::ControllerOptions opts;
  opts.requests.base_rate_per_hour = 200;  // the July 20th rush is dense
  core::Controller controller(cluster, sdn, opts);
  controller.install();
  util::SampleSet latencies_ms;
  controller.fabric().add_on_complete(
      [&latencies_ms](util::SimTime, double latency_ms, bool) { latencies_ms.add(latency_ms); });

  // One year of history so the SIy scale knows about July 20th.
  controller.pretrain_models(util::kHoursPerYear);

  host.account_now();
  const double kwh_before = host.energy().kwh();
  const util::SimTime s3_before = host.time_in(sim::PowerState::S3);
  const int suspends_before = host.suspend_count();

  // Simulate mid-June through mid-August of year 1 (day 165 to day 225).
  controller.run_hours(60 * util::kHoursPerDay);

  host.account_now();
  const util::SimTime window = 60 * util::kMsPerDay;
  std::printf("diploma-results host over the 60-day window around July 20:\n");
  std::printf("  suspended       %5.1f%% of the time\n",
              100.0 * static_cast<double>(host.time_in(sim::PowerState::S3) - s3_before) /
                  static_cast<double>(window));
  std::printf("  suspend cycles  %d\n", host.suspend_count() - suspends_before);
  std::printf("  energy          %.2f kWh (always-on would be %.2f kWh)\n",
              host.energy().kwh() - kwh_before,
              50.0 * 24.0 * 60.0 / 1000.0);  // idle watts * hours

  const auto& stats = controller.fabric().stats();
  std::printf("  requests        %llu (%llu woke the host)\n",
              static_cast<unsigned long long>(stats.total),
              static_cast<unsigned long long>(stats.woke_host));
  if (!latencies_ms.empty()) {
    std::printf("  latency p50     %.0f ms, p99 %.0f ms, SLA(<=%.0fms) %.2f%%\n",
                latencies_ms.quantile(0.5), latencies_ms.quantile(0.99),
                controller.fabric().config().sla_ms, 100.0 * stats.sla_attainment());
  }

  // What does the model believe about July 20th next year?  A once-a-year
  // event cannot out-vote 400+ idle observations of the same hour-of-day
  // in the linear SI mixture, so the absolute prediction stays "idle" —
  // but the *ranking* shows the learned seasonality: the rush hour gets
  // the lowest idleness probability of any 14:00 in year 2.  (The paper
  // notes "there is no overhead in the case of wrong predictions": actual
  // suspension/waking reacts to real traffic, as the wake counts above
  // show.)
  const util::CalendarTime rush =
      util::calendar_of(util::time_of(2, /*day_of_year=*/200, /*hour=*/14));
  const util::CalendarTime lull =
      util::calendar_of(util::time_of(2, /*day_of_year=*/40, /*hour=*/14));
  const auto& model = controller.models().model(vm.id());
  const double rush_siy = model.si(core::Scale::Year, rush);
  const double lull_siy = model.si(core::Scale::Year, lull);
  std::printf("\nyear-scale synthesized idleness for year 2 (negative = active):\n");
  std::printf("  %s  SIy = %+.2e%s\n", rush.to_string().c_str(), rush_siy,
              rush_siy < lull_siy ? "   <- the learned rush" : "");
  std::printf("  %s  SIy = %+.2e\n", lull.to_string().c_str(), lull_siy);
  const auto& w = model.weights();
  std::printf("learned weights: day=%.2f week=%.2f month=%.2f year=%.2f\n", w[0], w[1],
              w[2], w[3]);
  return 0;
}

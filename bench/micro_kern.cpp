// Micro-benchmarks for the kernel substrate: the expiry-ordered timer queue
// the suspending module walks (§V-B) and the process scan of the idleness
// check (§IV).  Establishes that per-check costs stay in the microsecond
// range even with large guest populations.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "kern/guest_os.hpp"
#include "kern/hrtimer.hpp"
#include "util/rng.hpp"

namespace kern = drowsy::kern;
namespace util = drowsy::util;

namespace {

void BM_TimerArmCancel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  kern::HrTimerQueue queue;
  std::vector<std::unique_ptr<kern::HrTimer>> timers;
  util::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    timers.push_back(std::make_unique<kern::HrTimer>());
    queue.arm(*timers.back(), rng.uniform_int(0, 1'000'000));
  }
  kern::HrTimer probe;
  for (auto _ : state) {
    queue.arm(probe, rng.uniform_int(0, 1'000'000));
    queue.cancel(probe);
  }
  state.SetLabel(std::to_string(n) + " timers resident");
}
BENCHMARK(BM_TimerArmCancel)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_TimerPeekEarliest(benchmark::State& state) {
  kern::HrTimerQueue queue;
  std::vector<std::unique_ptr<kern::HrTimer>> timers;
  util::Rng rng(7);
  for (int i = 0; i < state.range(0); ++i) {
    timers.push_back(std::make_unique<kern::HrTimer>());
    queue.arm(*timers.back(), rng.uniform_int(0, 1'000'000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.peek());
  }
}
BENCHMARK(BM_TimerPeekEarliest)->Arg(256)->Arg(65536);

void BM_TimerPeekFiltered(benchmark::State& state) {
  // The §V-B walk: earliest timer whose owner is not blacklisted, with a
  // prefix of blacklisted (monitoring) timers to skip.
  kern::HrTimerQueue queue;
  std::vector<std::unique_ptr<kern::HrTimer>> timers;
  const auto noise = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < noise; ++i) {
    timers.push_back(std::make_unique<kern::HrTimer>());
    timers.back()->owner_pid = 1;  // "monitoring"
    queue.arm(*timers.back(), static_cast<util::SimTime>(i));
  }
  timers.push_back(std::make_unique<kern::HrTimer>());
  timers.back()->owner_pid = 100;  // the real service
  queue.arm(*timers.back(), static_cast<util::SimTime>(noise + 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queue.peek_filtered([](const kern::HrTimer& t) { return t.owner_pid >= 100; }));
  }
  state.SetLabel(std::to_string(noise) + " blacklisted timers to skip");
}
BENCHMARK(BM_TimerPeekFiltered)->Arg(0)->Arg(8)->Arg(64)->Arg(512);

void BM_GuestIdleCheck(benchmark::State& state) {
  kern::GuestOs guest;
  const kern::Blacklist blacklist = kern::Blacklist::standard();
  for (int i = 0; i < state.range(0); ++i) {
    guest.processes().spawn("svc-" + std::to_string(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(guest.any_relevant_running(blacklist));
    benchmark::DoNotOptimize(guest.any_blocked_on_io());
    benchmark::DoNotOptimize(guest.total_open_sessions());
  }
  state.SetLabel(std::to_string(state.range(0)) + " processes");
}
BENCHMARK(BM_GuestIdleCheck)->Arg(10)->Arg(100)->Arg(1000);

void BM_TimerFireDueBatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    kern::HrTimerQueue queue;
    std::vector<std::unique_ptr<kern::HrTimer>> timers;
    for (int i = 0; i < state.range(0); ++i) {
      timers.push_back(std::make_unique<kern::HrTimer>());
      queue.arm(*timers.back(), i);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(queue.fire_due(state.range(0)));
  }
}
BENCHMARK(BM_TimerFireDueBatch)->Arg(256)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();

// micro_sim_throughput — the simulator's raw speed, measured at the two
// grains the ROADMAP's scale item cares about:
//
//   events/sec  raw EventQueue dispatch: a scatter of no-op events with
//               shuffled deadlines, so the number is dominated by the
//               ordering structure and not by callback work.
//   timer …/sec heartbeat-shaped load: thousands of self-rescheduling
//               periodic chains (the event class PR 8's profiling showed
//               dominates netsim scenarios).
//   frame …/sec netsim-frame-shaped load: same-timestamp bursts.
//   runs/sec    full run_one() over a registry scenario (netsim-failover:
//               one simulated day plus pretraining, heartbeats and the
//               wake fabric in the loop) — the unit the BatchRunner and
//               the shard daemons parallelize.  Runs repeat until at
//               least 1 s of wall has passed and at least --runs (default
//               3) are done; "runs" in the JSON record is the count.
//
// The three synthetic phases keep 2,048–4,096 events pending, far more
// than any sweep does (the paper catalogue never exceeds 13), so their
// rates price the event queue's heap at a depth the simulator does not
// reach.  The runs/sec phase is the one that reflects real workloads.
//
// Unlike the other micro_* benches this is self-timed (steady_clock, no
// Google Benchmark dependency): its numbers feed BENCH_sim.json, the
// checked-in baseline that CI diffs against (warn-only).  Peak RSS rides
// along via getrusage so memory regressions show up in the same record.
//
// A final *untimed* run executes with an obs::EventProfile attached and
// contributes the per-tag event-core breakdown (which event classes the
// simulated day is made of, and where dispatch wall-time goes).  The
// timed phases stay unprofiled so the headline numbers keep measuring
// the bare queue; the breakdown is additive in the JSON record
// ("event_profile"), so older baseline parsers keep working.
//
//   micro_sim_throughput [--events N] [--runs MIN] [--bench-json F]
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "expctl/json.hpp"
#include "obs/event_profile.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/probes.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Dispatch `count` no-op events whose deadlines are scattered by a
/// seeded RNG: the heap stays deep (batches of 4096 pending), so this
/// measures ordering cost, not an always-empty queue's fast path.
double event_phase(std::size_t count) {
  drowsy::sim::EventQueue queue;
  drowsy::util::Rng rng(12345);
  volatile std::size_t sink = 0;  // keep the callbacks from folding away
  const auto start = Clock::now();
  std::size_t scheduled = 0;
  while (scheduled < count) {
    const std::size_t batch = std::min<std::size_t>(4096, count - scheduled);
    for (std::size_t i = 0; i < batch; ++i) {
      const auto delay = static_cast<drowsy::util::SimTime>(rng.uniform(0.0, 1000.0));
      queue.schedule_after(delay, [&sink] { sink = sink + 1; });
    }
    queue.run_all();
    scheduled += batch;
  }
  return seconds_since(start);
}

/// Heartbeat-like load: `timers` self-rescheduling periodic events with
/// staggered phases, run for `count` total dispatches.  This is the
/// profile PR 8 measured as dominant on netsim-failover (heartbeat +
/// hrtimer events, ~80% of the simulated day): a steady sliding window
/// of near-future deadlines, 4096 deep — a full log-depth sift on every
/// pop, the binary heap's worst case short of random scatter.
double timer_phase(std::size_t count, std::size_t timers) {
  drowsy::sim::EventQueue queue;
  volatile std::size_t sink = 0;
  std::size_t remaining = count;
  const auto start = Clock::now();
  // One self-rescheduling chain per timer; each fires every ~1 s of sim
  // time with a deterministic per-timer phase offset.
  struct Beat {
    drowsy::sim::EventQueue* q;
    volatile std::size_t* sink;
    std::size_t* remaining;
    drowsy::util::SimTime period;
    void operator()() const {
      *sink = *sink + 1;
      if (*remaining == 0) return;
      --*remaining;
      q->schedule_after(period, Beat{*this}, drowsy::obs::EventTag::Heartbeat);
    }
  };
  for (std::size_t t = 0; t < timers && remaining > 0; ++t) {
    --remaining;
    const auto phase = static_cast<drowsy::util::SimTime>(t % 1000);
    queue.schedule_after(phase, Beat{&queue, &sink, &remaining, 1000},
                         drowsy::obs::EventTag::Heartbeat);
  }
  queue.run_all();
  return seconds_since(start);
}

/// Netsim-frame burst load: frames arrive in same-timestamp clumps (a
/// wake storm's switch egress), `burst` events per instant.  Measures
/// same-timestamp dispatch: every frame pays its own heap pop, ties
/// broken by sequence number.
double frame_phase(std::size_t count, std::size_t burst) {
  drowsy::sim::EventQueue queue;
  volatile std::size_t sink = 0;
  const auto start = Clock::now();
  std::size_t scheduled = 0;
  while (scheduled < count) {
    const std::size_t window = std::min<std::size_t>(64 * burst, count - scheduled);
    for (std::size_t i = 0; i < window; ++i) {
      // 64 distinct instants per window, `burst` frames on each.
      const auto at = static_cast<drowsy::util::SimTime>(i / burst);
      queue.schedule_after(at, [&sink] { sink = sink + 1; },
                           drowsy::obs::EventTag::NetsimFrame);
    }
    queue.run_all();
    scheduled += window;
  }
  return seconds_since(start);
}

/// Peak resident set in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t event_count = 2'000'000;
  std::size_t min_runs = 3;
  std::string bench_json;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--events") == 0) {
      event_count = static_cast<std::size_t>(std::atoll(value("--events")));
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      min_runs = static_cast<std::size_t>(std::atoll(value("--runs")));
    } else if (std::strcmp(argv[i], "--bench-json") == 0) {
      bench_json = value("--bench-json");
    } else {
      std::fprintf(stderr,
                   "usage: %s [--events N] [--runs MIN] [--bench-json F]\n", argv[0]);
      return 2;
    }
  }

  const double event_wall_s = event_phase(event_count);
  const double events_per_sec =
      event_wall_s > 0.0 ? static_cast<double>(event_count) / event_wall_s : 0.0;
  std::printf("events: %zu in %.3f s  (%.0f events/s)\n", event_count, event_wall_s,
              events_per_sec);

  // Workload-shaped phases (PR 8's profile: heartbeat/hrtimer timers and
  // switch frame bursts dominate the simulated day).
  const double timer_wall_s = timer_phase(event_count, /*timers=*/4096);
  const double timer_events_per_sec =
      timer_wall_s > 0.0 ? static_cast<double>(event_count) / timer_wall_s : 0.0;
  std::printf("timers: %zu in %.3f s  (%.0f events/s, 4096 periodic chains)\n",
              event_count, timer_wall_s, timer_events_per_sec);

  const double frame_wall_s = frame_phase(event_count, /*burst=*/32);
  const double frame_events_per_sec =
      frame_wall_s > 0.0 ? static_cast<double>(event_count) / frame_wall_s : 0.0;
  std::printf("frames: %zu in %.3f s  (%.0f events/s, bursts of 32)\n",
              event_count, frame_wall_s, frame_events_per_sec);

  namespace sc = drowsy::scenario;
  const char* scenario_name = "netsim-failover";
  const sc::ScenarioSpec& spec = sc::ScenarioRegistry::builtin().at(scenario_name);
  // One run takes tens of milliseconds: a fixed handful is too short a
  // window to time, so repeat until it spans at least a second.
  constexpr double kMinRunWallS = 1.0;
  const auto runs_start = Clock::now();
  std::uint64_t requests = 0;
  std::size_t run_count = 0;
  for (; run_count < min_runs || seconds_since(runs_start) < kMinRunWallS; ++run_count) {
    const sc::RunResult result =
        sc::run_one(spec, sc::Policy::DrowsyDc, sc::mix_seed(spec.seed, run_count));
    requests += result.requests;
  }
  const double run_wall_s = seconds_since(runs_start);
  const double runs_per_sec =
      run_wall_s > 0.0 ? static_cast<double>(run_count) / run_wall_s : 0.0;
  std::printf("runs:   %zu x %s in %.3f s  (%.2f runs/s, %llu requests)\n", run_count,
              scenario_name, run_wall_s, runs_per_sec,
              static_cast<unsigned long long>(requests));

  // Event-core breakdown: one more run, profiled, outside the timed
  // window (profiling adds a steady_clock read per event, which the
  // headline runs/s must not pay).
  drowsy::obs::EventProfile profile;
  const sc::RunProbe probe =
      sc::profile_probe([&profile](const drowsy::obs::EventProfile& p) {
        profile.merge(p);
      });
  static_cast<void>(sc::run_one(spec, sc::Policy::DrowsyDc, spec.seed,
                                /*trace_cache=*/nullptr, &probe));
  std::printf("event core (1 profiled run, %llu events):\n",
              static_cast<unsigned long long>(profile.total_events()));
  for (const drowsy::obs::EventTag tag : drowsy::obs::all_event_tags()) {
    if (profile.events(tag) == 0) continue;
    std::printf("  %-14s %10llu events  %8.2f ms dispatch\n",
                drowsy::obs::to_string(tag),
                static_cast<unsigned long long>(profile.events(tag)),
                static_cast<double>(profile.dispatch_ns(tag)) / 1e6);
  }

  const double rss_mb = peak_rss_mb();
  std::printf("peak RSS: %.1f MiB\n", rss_mb);

  if (!bench_json.empty()) {
    drowsy::expctl::Json j = drowsy::expctl::Json::object();
    j.set("bench", "micro_sim_throughput");
    j.set("events", static_cast<std::uint64_t>(event_count));
    j.set("event_wall_s", event_wall_s);
    j.set("events_per_sec", events_per_sec);
    // Workload-shaped queue phases (additive keys, PR 9): periodic-timer
    // and same-timestamp-burst dispatch rates.
    j.set("timer_events_per_sec", timer_events_per_sec);
    j.set("frame_events_per_sec", frame_events_per_sec);
    j.set("scenario", scenario_name);
    j.set("runs", static_cast<std::uint64_t>(run_count));
    j.set("run_wall_s", run_wall_s);
    j.set("runs_per_sec", runs_per_sec);
    j.set("peak_rss_mb", rss_mb);
    // Additive key: the warn-only CI delta greps the scalar keys above
    // and keeps parsing baselines that predate the profile.
    j.set("event_profile", profile.to_json());
    if (!sc::write_file(bench_json, j.dump())) return 1;
  }
  return 0;
}

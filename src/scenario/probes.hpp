// Standard run probes: deterministic timelines and event-core profiles.
//
// The obs layer provides the mechanisms (TraceWriter, EventProfile); this
// module binds them to scenario runs via RunProbe factories:
//
//   * timeline_probe(dir) — writes one Chrome-trace/Perfetto JSON file
//     per run into `dir`, recording host power transitions (duration
//     slices per power state), WoL frames traversing the switch and SLA
//     violations (request latency above the spec's bound) — all stamped
//     in sim time, so the file is byte-identical at any batch thread
//     count.  File names embed (scenario, policy, seed, spec-hash) and
//     are collision-free across a sweep grid.
//   * profile_probe(aggregate, mutex-free) — attaches an obs::EventProfile
//     to the run's event queue and folds it into a shared aggregate when
//     the run finishes.  The aggregate carries dispatch *wall* time, so
//     it must never feed a deterministic artifact; it exists for bench
//     breakdowns and worker metrics snapshots.
//
// Both probes are pure observers: simulation results are byte-identical
// with and without them (verified in tests/scenario/test_probes.cpp).
#pragma once

#include <functional>
#include <string>

#include "obs/event_profile.hpp"
#include "scenario/scenario.hpp"

namespace drowsy::scenario {

/// Deterministic per-run trace file name: "<scenario>-<policy>-<seed>-
/// <spec-hash16>.trace.json".  The spec hash disambiguates sweep-axis
/// variants that share (scenario, policy, seed).
[[nodiscard]] std::string trace_file_name(const ScenarioSpec& spec, Policy policy,
                                          std::uint64_t seed);

/// Probe writing one Perfetto-loadable timeline per run into `dir`
/// (created on demand).  Throws std::runtime_error from the observer's
/// flush when the file cannot be written.
[[nodiscard]] RunProbe timeline_probe(std::string dir);

/// Probe attaching an event-core profile to each run's queue and folding
/// the per-run result into `aggregate` via `fold` when the run finishes.
/// `fold` runs on the worker thread driving the run — pass a callback
/// that locks if the aggregate is shared (BatchRunner's completion path).
[[nodiscard]] RunProbe profile_probe(
    std::function<void(const obs::EventProfile&)> fold);

/// Compose probes: each run gets every probe's observer.
[[nodiscard]] RunProbe combine_probes(std::vector<RunProbe> probes);

}  // namespace drowsy::scenario

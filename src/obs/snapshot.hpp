// Worker metrics snapshots: the progress signal for the fleet.
//
// Each worker (a `shard daemon`, or `drowsy_sweep run --metrics-json`)
// periodically flushes one small JSON file describing what it has done
// so far — jobs finished, trace-cache hit rate, journal rows written,
// and its aggregated event-core profile.  `shard status --json` merges
// every worker's snapshot into one fleet view.  A snapshot says nothing
// about whether a claim is alive: that is the claim lease's job
// (distrib/lease.hpp).
//
// Snapshots are observability artifacts, NOT deterministic outputs:
// `updated_unix_ms` is wall clock and the event profile carries dispatch
// wall-time.  They live outside the journal/CSV determinism contract.
#pragma once

#include <cstdint>
#include <string>

#include "expctl/json.hpp"
#include "obs/event_profile.hpp"

namespace drowsy::obs {

struct WorkerSnapshot {
  std::string worker_id;
  std::uint64_t updated_unix_ms = 0;  ///< wall clock at flush (freshness)
  std::uint64_t tasks_done = 0;       ///< queue tasks archived to done/
  std::uint64_t tasks_failed = 0;     ///< queue tasks archived to failed/
  std::uint64_t jobs_done = 0;        ///< finished runs (journal rows written)
  std::uint64_t journal_rows = 0;     ///< rows appended across all journals
  std::uint64_t trace_cache_hits = 0;
  std::uint64_t trace_cache_misses = 0;
  EventProfile profile;               ///< aggregated event-core profile
};

/// {"schema": "drowsy-worker-metrics-v1", ...} — field order fixed.
[[nodiscard]] expctl::Json to_json(const WorkerSnapshot& snapshot);

/// Strict inverse (schema string checked, every field required).  Throws
/// expctl::JsonError on malformed input.
[[nodiscard]] WorkerSnapshot snapshot_from_json(const expctl::Json& j);

/// Atomically replace `path` with the rendered snapshot (write to
/// `path.tmp`, fsync-free rename) so concurrent readers never see a torn
/// file.  Parent directories are created as needed.  Throws
/// std::runtime_error on I/O failure.
void write_snapshot_file(const std::string& path, const WorkerSnapshot& snapshot);

/// Read + parse a snapshot file.  Throws on I/O or parse failure.
[[nodiscard]] WorkerSnapshot read_snapshot_file(const std::string& path);

/// Wall clock now, in milliseconds since the Unix epoch (the
/// `updated_unix_ms` stamp).
[[nodiscard]] std::uint64_t wall_clock_unix_ms();

}  // namespace drowsy::obs

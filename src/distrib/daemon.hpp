// Queue-directory worker daemon: unattended shard execution.
//
// `shard run` executes one manifest per invocation, so every worker
// machine of a fleet needs babysitting.  run_daemon() is the long-running
// alternative: point every worker at one queue directory on a shared
// filesystem and let them drain it.  Both execute a task through the same
// shard_runner.hpp calls (load_shard_task, run_shard); the daemon adds
// only the claim, the lease and the archive step.
//
// Queue protocol (everything lives under one root):
//
//   <queue>/<name>.json            pending task: a ShardManifest, as
//                                  written by `shard plan --out-dir`
//   <queue>/<sweep file>           the sweep the manifests reference; it
//                                  is read in place, never claimed
//   <queue>/claimed/<worker>/      manifests this worker owns, plus their
//                                  journals while running
//   <queue>/done/                  finished manifest + journal pairs
//   <queue>/failed/                failed manifests (+ partial journal)
//                                  with a <name>.error.txt diagnosis
//   <queue>/metrics/<worker>.json  the worker's metrics snapshot (see
//                                  obs/snapshot.hpp), rewritten atomically
//                                  every poll cycle and after every
//                                  finished run; observability only
//   <queue>/STOP                   sentinel: daemons exit at next poll
//
// A pending file is recognized by *content*, not name: anything that
// parses as a manifest is a task, anything else (the sweep file itself, a
// half-copied upload) is skipped and re-examined next poll.  Claiming is
// one rename(2) into the worker's claimed/ subdirectory — atomic on a
// shared POSIX filesystem, so N daemons never double-run a task: exactly
// one rename succeeds, the losers see ENOENT and move on.
//
// The manifest's `sweep_file` is resolved first by basename inside the
// queue root (the recommended layout: enqueue the sweep next to its
// manifests), then as the recorded path itself (absolute, or relative to
// the daemon's working directory).
//
// Execution reuses the crash-safe journal path (run_shard): a daemon
// killed mid-task leaves the manifest in its claimed/ directory and, on
// restart with the same --worker-id, resumes it from the journal before
// polling for new work.  A task that throws is moved to failed/ with the
// error text beside it; the daemon keeps serving.
//
// Liveness: every claim carries a lease (lease.hpp) —
// claimed/<worker>/<name>.lease.json, granted just before the claim
// rename and renewed after every journal row — and idle daemons reap
// other workers' expired claims back into the queue (reaper.hpp), so a
// fleet survives any member's death without outside intervention.  A
// re-enqueued manifest may arrive with a journal snapshot beside it
// (<queue>/<name>.journal.jsonl, published by the reaper); the claiming
// daemon adopts it so the dead worker's finished rows are resumed, not
// re-executed.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "distrib/shard.hpp"

namespace drowsy::distrib {

struct DaemonOptions {
  std::string queue_dir;  ///< queue root; must already exist
  /// Names this worker's claimed/ subdirectory.  Must be stable across
  /// restarts for crash resume to find its own claimed tasks, unique per
  /// concurrently-running daemon, and contain no path separators.
  std::string worker_id;
  std::size_t threads = 0;   ///< per-task BatchRunner threads (0 = hardware)
  double max_idle_s = 60.0;  ///< exit after this long with no work; <= 0 waits
                             ///< for STOP alone
  unsigned poll_ms = 500;    ///< sleep between empty scans
  /// TTL written into this worker's claim leases.  Renewed after every
  /// journal row, so it only needs to outlast the longest single
  /// simulation run plus scheduling jitter — not the whole task.
  double lease_ttl_s = 900.0;
  /// Opportunistically reap other workers' expired claims while idle
  /// (own claims are never reaped — they are this worker's backlog).
  bool reap = true;
  /// Optional progress sink (one line per claim/finish/failure); the
  /// daemon itself never writes to stdout.  Called from the daemon's
  /// thread only.
  std::function<void(const std::string&)> on_event;
};

/// Why run_daemon() returned.
enum class DaemonExit {
  Stopped,  ///< STOP sentinel observed
  Idle,     ///< max_idle_s elapsed with nothing to claim
};

struct DaemonOutcome {
  std::size_t completed = 0;  ///< tasks moved to done/ (incl. crash-resumed)
  std::size_t failed = 0;     ///< tasks moved to failed/
  std::size_t reaped = 0;     ///< other workers' claims this daemon re-enqueued
  DaemonExit exit = DaemonExit::Idle;
};

/// Serve the queue until STOP or idle timeout; see the file comment for
/// the protocol.  Throws DistribError only for an unusable queue (missing
/// root, bad worker id, un-creatable subdirectories) — per-task failures
/// are contained in failed/ and counted, never thrown.  Safe to run many
/// daemons (threads or processes, same or different machines) against one
/// queue root as long as worker ids are distinct.
[[nodiscard]] DaemonOutcome run_daemon(const DaemonOptions& options);

}  // namespace drowsy::distrib

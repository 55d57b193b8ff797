// The claim reaper: return a dead worker's claims to the queue.
//
// A daemon claims work by renaming a manifest into claimed/<worker>/ —
// exclusive until the owner archives it.  When the owner dies the claim
// parks its shard forever; leases (lease.hpp) make the death observable,
// and reap_queue() is the recovery arm: every claim whose lease has
// expired, or that has no readable lease at all, is atomically
// re-enqueued so any live daemon can pick it up.
//
// Reaping one claim:
//
//   1. snapshot the claim's journal: copy its *valid prefix* (torn tail
//      dropped) to a fresh-inode tmp file under <queue>/reaped/.  A
//      not-actually-dead owner may still hold an open descriptor on the
//      claimed journal; copying means its late writes land on an inode
//      nobody will ever read, instead of interleaving with a new owner.
//   2. commit: rename the manifest from claimed/<worker>/ back to the
//      queue root.  This is the linearization point — rename(2) is
//      atomic, so of N racing reapers exactly one succeeds and the rest
//      see ENOENT and walk away.  (It is also the owner-race guard: an
//      owner archiving the task at the same moment makes the rename
//      fail the same way.)
//   3. publish the journal snapshot as <queue>/<stem>.journal.jsonl.
//      The daemon that next claims the manifest adopts it, so work the
//      dead worker already journaled is never re-executed (resume
//      dedupes on (spec-hash, policy, seed)).
//   4. clean up the dead claim's journal + lease and append one row to
//      the reap journal, <queue>/reaped/reap.journal.jsonl (O_APPEND),
//      the audit trail that double-reaping and reap-vs-late-worker
//      races are tested against.
//
// A reaper crashing anywhere in that sequence is safe: before step 2
// nothing observable changed (the tmp is overwritten next attempt);
// after step 2 the manifest is already pending again, and a missing
// journal snapshot merely costs re-execution, not correctness.
// Re-enqueueing an alive-after-all worker's claim is *also* safe — the
// merge's duplicate detection plus journal dedupe keep the final CSV
// canonical — just wasteful, which is why lease TTLs should be generous
// multiples of the longest single run (the renewal period).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "distrib/lease.hpp"

namespace drowsy::distrib {

struct ReapOptions {
  std::string queue_dir;  ///< queue root; must already exist
  std::string reaper_id = "reaper";  ///< recorded in the reap journal
  /// Never reap this worker's claims (a daemon reaping opportunistically
  /// passes its own id: its claims are its legitimate backlog).
  std::string skip_worker;
  bool dry_run = false;  ///< report what would be reaped, change nothing
  /// Optional progress sink (one line per reaped/skipped claim).
  std::function<void(const std::string&)> on_event;
};

/// One committed reap, as appended to <queue>/reaped/reap.journal.jsonl.
struct ReapRecord {
  std::string manifest;   ///< basename of the re-enqueued manifest
  std::string worker_id;  ///< the dead owner
  std::string reaper_id;
  double age_s = 0.0;  ///< lease silence at reap time (0 without a lease)
  std::size_t rows_preserved = 0;  ///< journal rows carried back to the queue
  std::uint64_t reaped_unix_ms = 0;
};

[[nodiscard]] expctl::Json to_json(const ReapRecord& record);
[[nodiscard]] ReapRecord reap_record_from_json(const expctl::Json& j);

struct ReapOutcome {
  std::size_t examined = 0;  ///< claims scanned
  std::size_t expired = 0;   ///< claims past their lease TTL, or lease-less
  std::size_t reaped = 0;    ///< claims actually re-enqueued (= expired on a
                             ///< dry run: what *would* have been reaped)
  std::size_t rows_preserved = 0;  ///< journal rows carried back, total
};

/// Reap every expired claim in the queue; see the file comment for the
/// per-claim sequence.  Idempotent and race-safe: concurrent reapers,
/// late-but-alive owners, and repeated invocations all converge (at
/// worst with wasted re-execution, never divergent results).  Throws
/// DistribError only for an unusable queue; per-claim races are skipped
/// and counted, never thrown.
[[nodiscard]] ReapOutcome reap_queue(const ReapOptions& options);

/// Read the reap journal, oldest first.  A torn final line (reaper died
/// mid-append) is dropped; a missing journal is an empty history.
[[nodiscard]] std::vector<ReapRecord> read_reap_journal(const std::string& queue_dir);

}  // namespace drowsy::distrib

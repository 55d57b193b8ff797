// Crash-safe run journals: one JSONL row per finished run.
//
// A shard appends a row the moment a run completes (BatchRunner's
// completion callback) and flushes it, so a killed shard loses at most
// the row it was writing.  Resume is built on two guarantees:
//
//   - read_journal() accepts a torn tail: a final line without a
//     newline, or one that no longer parses, is *discarded* (reported via
//     truncated_tail) rather than treated as corruption.  A malformed
//     line followed by further complete lines, by contrast, cannot come
//     from a crash mid-append and is a hard error.
//   - JournalWriter::open() truncates the file to the last complete row
//     before appending, so the re-run of the torn job produces one clean
//     row instead of text glued onto the torn one.
//
// Rows carry the grid index (diagnostics) and the JobKey (identity): the
// resume path skips jobs whose (spec-hash, policy, seed) already has a
// row, and the merge layer matches rows back to grid slots by the same
// key — so journals survive replanning as long as the grid is unchanged.
// Results round-trip through expctl::runs_io with exact double bits,
// which is what makes merged CSVs byte-identical to single-process runs.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "distrib/shard.hpp"
#include "scenario/scenario.hpp"

namespace drowsy::distrib {

/// One journaled run.
struct JournalEntry {
  std::size_t index = 0;  ///< job-grid index at write time
  JobKey key;
  scenario::RunResult result;
  /// Measured wall-clock for the run, in milliseconds (>= 0).  Kept
  /// *outside* RunResult on purpose: wall time is machine-dependent, and
  /// RunResult must stay bit-identical across shards for merged CSVs to
  /// match single-process output.
  double wall_ms = 0.0;
};

/// Serialize one row, `wall_ms` included.
[[nodiscard]] expctl::Json to_json(const JournalEntry& entry);
/// Strict parse of one row.  Every field, `wall_ms` included, is required
/// and unknown keys are rejected.  Throws DistribError on any structural
/// or consistency problem.
[[nodiscard]] JournalEntry journal_entry_from_json(const expctl::Json& j);

/// What read_journal() recovered.
struct JournalContents {
  std::vector<JournalEntry> entries;  ///< complete rows, file order
  std::size_t valid_bytes = 0;        ///< offset just past the last complete row
  bool truncated_tail = false;        ///< a torn final line was discarded
};

/// Read a journal.  A missing file is an empty journal (fresh shard); a
/// torn final line is discarded; any other malformed content throws
/// DistribError with the line number.
[[nodiscard]] JournalContents read_journal(const std::string& path);

/// "<dir>/<stem>.journal.jsonl" for the manifest "<dir>/<stem>.json": the
/// one naming rule for a shard's journal, beside its manifest wherever
/// the manifest lives (shard run, a daemon's claimed/, the reaper's
/// snapshot in the queue root).
[[nodiscard]] std::string journal_path_for(const std::string& manifest_path);

/// Append-only writer.  Each append() writes one JSONL row and flushes.
///
/// Not thread-safe: callers serialize appends (run_shard relies on
/// BatchRunner's completion mutex).  Across processes, exactly one
/// writer may own a journal file at a time — the queue daemon's
/// rename-based claiming is what guarantees that on a shared filesystem.
class JournalWriter {
 public:
  /// Open `path` for appending, first truncating it to `valid_bytes`
  /// (from read_journal) so a torn tail never corrupts the next row.
  /// Creates the file when absent.  Throws DistribError on I/O failure.
  JournalWriter(const std::string& path, std::size_t valid_bytes);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Write one row and flush it to the OS.  Throws DistribError on I/O
  /// failure (a journal that silently drops rows would fail merge later,
  /// far from the cause).
  void append(const JournalEntry& entry);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

}  // namespace drowsy::distrib

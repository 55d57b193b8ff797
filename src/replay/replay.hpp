// File-backed workload replay for the scenario engine.
//
// A TraceKind::FileReplay workload does not synthesize anything: it loads
// a trace/csv column file (typically produced by `drowsy_trace convert`
// from a public cluster dataset) and hands one column to the VM.  This
// module owns the file side of that contract:
//
//   * load_replay_file() reads and parses a trace CSV, memoized
//     process-wide so a 48-VM fleet costs one parse, not 48.  The memo is
//     validated by content hash on every call — editing the file between
//     builds is observed, never served stale.
//   * the FNV-1a 64 hash of the bytes (util::fnv1a64, ReplayFile::hash)
//     is the identity of a file-backed workload: scenario::TraceCache
//     keys FileReplay specs by it, so a sweep stays bit-identical for as
//     long as the bytes do, and a changed file is a cache miss rather
//     than a silent reuse.
//   * select_column() resolves the TraceSpec knobs (`select` by column
//     name, else `variant` as a wrapping column index; `downsample`
//     mean-pools N-hour blocks) into the final ActivityTrace.
//
// Path resolution: a path is first tried as given (absolute, or relative
// to the current directory); if that fails and $DROWSY_TRACE_ROOT is set,
// it is retried under that root.  Registry scenarios carry repo-relative
// paths ("traces/azure_sample.csv"), so runs from the repo root work
// as-is and tests point DROWSY_TRACE_ROOT at the source tree.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace drowsy::replay {

/// A parsed trace CSV, shared by every VM replaying from it.
struct ReplayFile {
  std::string path;           ///< the path the file was actually read from
  std::uint64_t hash = 0;     ///< util::fnv1a64 of the raw bytes
  std::vector<trace::ActivityTrace> columns;

  /// Column by exact name; nullptr when absent.
  [[nodiscard]] const trace::ActivityTrace* find(const std::string& name) const;
};

/// Resolve `path` per the module contract: as given, else under
/// $DROWSY_TRACE_ROOT.  Returns the first candidate that exists; when
/// none does, returns `path` unchanged (the load will throw with a
/// message naming both candidates).
[[nodiscard]] std::string resolve_trace_path(const std::string& path);

/// Load and parse a trace CSV, memoized process-wide by resolved path and
/// re-validated by content hash on every call (changed bytes re-parse).
/// Thread-safe.  Throws std::runtime_error when the file is unreadable,
/// malformed, or has no usable columns.
[[nodiscard]] std::shared_ptr<const ReplayFile> load_replay_file(const std::string& path);

/// Resolve the FileReplay knobs against a loaded file:
///   select non-empty -> the column with that exact name (throws when
///     absent, listing what the file offers);
///   select empty     -> column `variant % columns.size()`;
///   downsample N > 1 -> mean-pool each consecutive N-hour block (the CI
///     speed knob: an N-times shorter trace, same shape).
/// The result is clamped to [0, 1] and keeps the column's name.
[[nodiscard]] trace::ActivityTrace select_column(const ReplayFile& file,
                                                 const std::string& select,
                                                 std::size_t variant, int downsample);

}  // namespace drowsy::replay

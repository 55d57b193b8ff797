// The traced pass: one sweep driven through each layer's public calls,
// every call timed from outside.
//
// run_traced() reproduces scenario::run_one() step by step —
// build -> pretrain_models -> run_hours (with the WakeFabric hour-end
// hook, exactly as run_one passes it) -> harvest -> teardown — and then
// journals, re-reads, merges and emits the results the way the sharded
// path does.  Each step becomes a Span; the counters the layers already
// expose (event-queue totals and core_stats, an attached EventProfile,
// suspend and waking module stats, trace-cache hits) are summed next to
// them.  The profile probe roughly doubles event dispatch cost, so wall
// times from this pass are for attribution only: end-to-end metrics come
// from the untraced pass.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/suspend_module.hpp"
#include "core/waking_module.hpp"
#include "obs/event_profile.hpp"
#include "scenario/batch_runner.hpp"
#include "sim/event_queue.hpp"

namespace perfbench {

/// Steady-clock nanoseconds since the first call in this process.
[[nodiscard]] std::int64_t now_ns();

/// One timed call.  `parent` is 0 for a root span.
struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::thread::id thread;
};

/// Thread-safe in-memory span store, written out once at the end.
class SpanLog {
 public:
  /// A fresh span id; reserve it before the span's children are recorded.
  [[nodiscard]] std::int64_t next_id() { return ++last_id_; }

  /// Record a finished span under a reserved id.
  void add(std::string name, std::int64_t id, std::int64_t parent, std::int64_t start_ns,
           std::int64_t end_ns);

  /// Record a finished span under a fresh id; returns the id.
  std::int64_t add(std::string name, std::int64_t parent, std::int64_t start_ns,
                   std::int64_t end_ns);

  [[nodiscard]] std::vector<Span> snapshot() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}, complete "X"
  /// events in microseconds, span id and parent id under "args"): loads
  /// in Perfetto and chrome://tracing as is.  Throws on I/O failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<std::int64_t> last_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Counters and summed per-call wall times of one traced sweep.
struct LayerCounters {
  drowsy::obs::EventProfile profile;
  std::uint64_t events = 0;  ///< Σ EventQueue::executed()
  drowsy::sim::EventQueue::CoreStats core{};  ///< summed; slab_slots is the max
  drowsy::core::SuspendStats suspend{};       ///< summed over hosts and runs
  drowsy::core::WakingStats waking{};         ///< primary + standby, summed
  std::uint64_t vm_hours_pretrained = 0;
  std::uint64_t runs = 0;
  std::int64_t build_ns = 0;
  std::int64_t pretrain_ns = 0;
  std::int64_t run_hours_ns = 0;
  std::int64_t harvest_ns = 0;
  std::int64_t teardown_ns = 0;
  std::int64_t append_ns = 0;

  void merge(const LayerCounters& other);
};

struct TracedSweep {
  std::vector<drowsy::scenario::RunResult> results;  ///< grid order, as harvested
  std::vector<drowsy::scenario::RunResult> merged;   ///< journal -> merge_journals
  std::string emitted_csv;                           ///< to_csv(merged)
  std::string stats_csv;  ///< replicate statistics + policy verdicts of `merged`
  LayerCounters counters;
  std::uint64_t trace_hits = 0;
  std::uint64_t trace_misses = 0;
  std::int64_t wall_ns = 0;   ///< first job dispatched -> last result journaled
  std::int64_t merge_ns = 0;  ///< read_journal + merge_journals
  std::int64_t emit_ns = 0;   ///< summarize + compare_policies + to_csv
  std::size_t failed_runs = 0;
};

/// Drive `jobs` through the layers on `threads` workers, submitting them
/// in `order` (grid indices) and journaling to `journal_path` (truncated
/// first).  Results come back in grid order.  Spans go to `log` under
/// `parent`.  Per-run exceptions are counted in failed_runs, not thrown.
[[nodiscard]] TracedSweep run_traced(const std::vector<drowsy::scenario::BatchJob>& jobs,
                                     const std::vector<std::size_t>& order,
                                     std::size_t threads, const std::string& journal_path,
                                     SpanLog& log, std::int64_t parent);

}  // namespace perfbench

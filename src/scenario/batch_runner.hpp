// Parallel batch execution of (scenario x policy x seed) runs.
//
// Each run is an independent single-threaded simulation (its own
// EventQueue, Cluster and Controller), so the batch fans runs across
// util::ThreadPool with no shared mutable state.  Results land in a
// vector indexed by job order — never by completion order — which makes
// the output bit-identical at 1 and N worker threads.  The per-run CSV
// lives here; grouping replicates and every other serialization of run
// results is expctl's (expctl/report.hpp, expctl/runs_io.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/thread_pool.hpp"

namespace drowsy::scenario {

/// One unit of batch work.  The spec is copied in so jobs stay valid
/// independently of registry lifetime and callers can tweak per-job specs.
struct BatchJob {
  ScenarioSpec spec;
  Policy policy = Policy::DrowsyDc;
  std::uint64_t seed = 0;  ///< 0 = use spec.seed

  /// The seed the run actually executes with — the one rule every
  /// consumer (runner, journal keys, study reducers) must agree on.
  [[nodiscard]] std::uint64_t resolved_seed() const {
    return seed != 0 ? seed : spec.seed;
  }
};

/// Cartesian helper: every spec x every policy x every replicate seed.
/// Replicate seeds are derived as mix_seed(spec.seed, replicate index),
/// so the same spec list always yields the same job list.
[[nodiscard]] std::vector<BatchJob> cross(const std::vector<ScenarioSpec>& specs,
                                          const std::vector<Policy>& policies,
                                          std::size_t replicates = 1);

/// Runs batches over an internal thread pool.
class BatchRunner {
 public:
  /// `threads` = worker count; 0 picks hardware concurrency.
  explicit BatchRunner(std::size_t threads = 0);

  /// Observer for finished runs: (job index, result, wall-clock ms the run
  /// took on its worker thread).  Invoked from worker threads in
  /// *completion* order (not job order), serialized under an internal
  /// mutex so implementations may write to shared sinks (e.g. a run
  /// journal) without their own locking.  The duration covers run_one()
  /// only — trace-cache waits included, callback time excluded — which is
  /// what a cost model wants: the price of executing this job again.
  /// Exceptions thrown by the callback abort the batch like a failing run.
  using CompletionCallback =
      std::function<void(std::size_t, const RunResult&, double wall_ms)>;

  /// Execute every job; results arrive in job order regardless of the
  /// execution schedule.  The first exception thrown by a run (e.g. an
  /// invalid spec) is rethrown on the caller thread.  Jobs share one
  /// TraceCache for the duration of the call, so the batch materializes
  /// each distinct (TraceSpec, seed) trace once instead of once per run.
  ///
  /// Execution order is a deterministic function of the job list: jobs
  /// are grouped by the first appearance of their first trace key, and
  /// the groups keep their submission order, so the policy arms of a
  /// replicate run back to back.  The cache is planned with every job's
  /// trace uses up front and drops each trace after its last use, so the
  /// batch holds the traces of the jobs in flight, not of the whole job
  /// list.
  [[nodiscard]] std::vector<RunResult> run(const std::vector<BatchJob>& jobs);

  /// Same, additionally reporting each finished run to `on_complete` —
  /// the hook crash-safe journaling hangs off (a row is observable as
  /// soon as its run finishes, not when the whole batch does).
  [[nodiscard]] std::vector<RunResult> run(const std::vector<BatchJob>& jobs,
                                           const CompletionCallback& on_complete);

  /// Same, additionally attaching `probe` to every run (timelines, event
  /// profiles — see scenario/probes.hpp).  The probe factory is invoked
  /// from worker threads and must be thread-safe; per-run observers stay
  /// thread-local.  Results are byte-identical with and without a probe.
  [[nodiscard]] std::vector<RunResult> run(const std::vector<BatchJob>& jobs,
                                           const CompletionCallback& on_complete,
                                           const RunProbe& probe);

  [[nodiscard]] std::size_t thread_count() const { return pool_.thread_count(); }

  /// Trace-cache statistics of the most recent run() (for reporting).
  [[nodiscard]] std::uint64_t last_trace_hits() const { return last_trace_hits_; }
  [[nodiscard]] std::uint64_t last_trace_misses() const { return last_trace_misses_; }

 private:
  util::ThreadPool pool_;
  std::uint64_t last_trace_hits_ = 0;
  std::uint64_t last_trace_misses_ = 0;
};

// --- emission ----------------------------------------------------------------

/// Fixed %.6f rendering, shared by every fixed-format result emitter (run
/// CSVs, expctl's stats and verdicts, study figures) so their bytes are
/// stable across runs and machines.
[[nodiscard]] std::string num(double v);

/// Per-run results as CSV (header + one line per run, fixed formatting).
[[nodiscard]] std::string to_csv(const std::vector<RunResult>& results);

/// Write `content` to `path`; returns false (and logs) on I/O failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace drowsy::scenario

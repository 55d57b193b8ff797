// Raw cluster-trace ingestion: public-dataset-style reading/task rows
// folded into hourly ActivityTraces.
//
// The paper's Nutanix traces are proprietary, so trace/generators
// reconstructs them synthetically.  This module is the external-validity
// counterpart: it ingests the two dominant public formats —
// Azure-Public-Dataset-style per-VM CPU readings and
// Google-cluster-usage-style task rows — and folds the raw readings into
// the repository's canonical workload representation (one activity level
// in [0, 1] per hour, trace::ActivityTrace).  Folding handles the three
// realities of exported data: sub-hourly readings (resampled by
// time-weighted mean), missing readings (gaps inside a VM's lifetime
// become idle hours), and out-of-range values (each reading clamped to
// [0, 1], and each hour again, where overlapping segments sum past 1).
// Non-finite readings ("nan", "inf") and times outside [0, 10 years] are
// malformed rows.
//
// Each VM's trace spans that VM's own lifetime (first reading to last
// reading), not the dataset's global window, so ActivityTrace::classify
// sees real lifetimes and the SLMU/LLMU/LLMI taxonomy applies unchanged.
//
// Determinism: folding is a sequential accumulation over the input rows;
// identical input bytes produce bit-identical traces on every machine.
// The sample writers are seeded (util::Rng), so the checked-in fixture
// slices under traces/ can be regenerated byte-for-byte by CI.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace drowsy::replay {

/// Which raw-dataset schema a file follows.
enum class DatasetFormat {
  AzureVm,     ///< `timestamp,vm_id,core_count,avg_cpu` (percent) readings
  GoogleTask,  ///< `start_time,end_time,job_id,task_index,cpu_rate` rows
};

[[nodiscard]] const char* to_string(DatasetFormat f);

/// Parse "azure" / "google"; throws std::invalid_argument otherwise,
/// listing the valid names.
[[nodiscard]] DatasetFormat dataset_format_from_string(const std::string& name);

/// Fold Azure-style per-VM CPU readings into hourly traces.
///
/// Expected header: `timestamp,vm_id,core_count,avg_cpu`.  `timestamp` is
/// seconds, `avg_cpu` a percentage in [0, 100].  All readings landing in
/// the same (vm, hour) bucket are averaged; hours between a VM's first
/// and last reading with no readings at all become 0.0 (the VM existed
/// but the exporter dropped the sample — idle is the conservative read).
/// Rows may arrive in any order.  Column order follows each VM's first
/// appearance.  Throws std::runtime_error on malformed input, with the
/// line number.
[[nodiscard]] std::vector<trace::ActivityTrace> fold_azure(std::istream& in);

/// Fold Google-cluster-usage-style task rows into hourly traces.
///
/// Expected header: `start_time,end_time,job_id,task_index,cpu_rate`.
/// Times are seconds; `cpu_rate` is mean utilization in [0, 1] over
/// [start_time, end_time).  Each row contributes `cpu_rate` weighted by
/// its overlap with every hour it spans; a (job_id, task_index) pair
/// becomes one trace named `j<job>-t<task>`.
[[nodiscard]] std::vector<trace::ActivityTrace> fold_google(std::istream& in);

/// Dispatch on format.
[[nodiscard]] std::vector<trace::ActivityTrace> fold_dataset(DatasetFormat format,
                                                             std::istream& in);

// --- classification summaries (manifest content) -----------------------------

/// Per-column digest of a folded trace, in column order.
struct ColumnSummary {
  std::string name;
  std::size_t hours = 0;
  double mean_activity = 0.0;
  double idle_fraction = 0.0;
  trace::VmClass vm_class = trace::VmClass::Llmi;
};

[[nodiscard]] std::vector<ColumnSummary> summarize_columns(
    const std::vector<trace::ActivityTrace>& traces);

/// SLMU/LLMU/LLMI population counts over a summary set.
struct ClassCounts {
  std::size_t slmu = 0;
  std::size_t llmu = 0;
  std::size_t llmi = 0;
};

[[nodiscard]] ClassCounts count_classes(const std::vector<ColumnSummary>& columns);

// --- deterministic sample slices ---------------------------------------------

/// Knobs for the seeded sample-slice writers (drowsy_trace sample).
struct SampleOptions {
  int vms = 6;              ///< population size
  int days = 14;            ///< dataset horizon
  int interval_s = 1800;    ///< Azure reading cadence (sub-hourly)
  std::uint64_t seed = 7;   ///< drives lifetimes, levels, dropped readings
};

/// Write a deterministic Azure-style raw slice: VMs cycle through
/// LLMU / LLMI / SLMU profiles (SLMU VMs get short lifetimes), readings
/// every `interval_s` with jitter and occasional drops, rows time-major
/// like a real export.  Identical options produce identical bytes.
void write_azure_sample(std::ostream& out, const SampleOptions& opts);

/// Write a deterministic Google-style raw slice: tasks emit contiguous
/// usage segments (busy profiles) or sparse segments with idle gaps
/// (LLMI-shaped), rows ordered by start time.
void write_google_sample(std::ostream& out, const SampleOptions& opts);

}  // namespace drowsy::replay

// Shard planning: split a sweep's job grid across machines.
//
// drowsy_sweep executes one expanded job grid in one process; catalogue
// sweeps with high replicate counts are capped by a single machine.  The
// planner cuts the grid into N shards *by index*, never by content — the
// grid itself stays exactly what expctl::expand() produces, so running
// the shards anywhere and merging the journals reproduces the
// single-process output byte for byte.
//
// Everything here is deterministic: the same sweep file and shard count
// always yield the same shards, so a plan can be re-emitted after a crash
// and still match journals produced by the original plan.
//
// A manifest is the unit of hand-off to a worker machine.  It pins the
// sweep by content hash (a worker refuses to run against an edited sweep
// file, whose grid might no longer match the planned indices) and lists
// the shard's job indices plus per-job identities for human inspection.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "expctl/json.hpp"
#include "scenario/batch_runner.hpp"

namespace drowsy::distrib {

/// Structurally invalid manifests/journals, coverage violations, hash
/// mismatches — anything that makes distributed state untrustworthy.
class DistribError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Identity of one job-grid entry as journals record it.  The spec hash
/// (canonical-JSON fingerprint, expctl::spec_hash) stands in for the full
/// spec, so a journal row can be matched back to its grid slot without
/// shipping the spec around.
struct JobKey {
  std::uint64_t spec_hash = 0;
  std::string policy;       ///< scenario::to_string(policy)
  std::uint64_t seed = 0;   ///< resolved: job.seed, or spec.seed when 0

  [[nodiscard]] bool operator==(const JobKey& other) const {
    return spec_hash == other.spec_hash && policy == other.policy && seed == other.seed;
  }
  /// "16-hex-digits|policy|seed" — the journal/lookup encoding.
  [[nodiscard]] std::string encode() const;
};

/// Keys for a whole grid; key i's spec_hash is expctl::spec_hash of job
/// i's spec.  Hashes each distinct spec once: consecutive grid entries
/// share specs (policy/seed vary fastest), so this is near-free for real
/// sweeps.
[[nodiscard]] std::vector<JobKey> job_keys(const std::vector<scenario::BatchJob>& jobs);

// --- planning ------------------------------------------------------------------

/// How a grid is split.  Balanced is the one strategy; the type stays so
/// the manifest's `strategy` key keeps naming it.
enum class ShardStrategy {
  Balanced,    ///< greedy longest-processing-time on estimated job cost
};

[[nodiscard]] const char* to_string(ShardStrategy s);
[[nodiscard]] ShardStrategy shard_strategy_from_string(const std::string& name);

/// Relative cost estimate for one job (arbitrary units).  Dominated by
/// simulated VM-days plus trace synthesis (VM-years of generated hours);
/// request load adds a linear factor.  Only *ratios* matter — the
/// balanced planner uses it to keep a shard from hoarding every
/// long-duration, large-fleet scenario.
[[nodiscard]] double estimate_job_cost(const scenario::BatchJob& job);

/// Split grid indices [0, jobs.size()) into `shard_count` shards.  Every
/// index lands in exactly one shard; each shard's indices are ascending.
/// Balanced uses deterministic LPT: jobs sorted by (cost desc, index asc)
/// go to the currently lightest shard (ties to the lowest shard id).
/// Shards may be empty when shard_count > jobs.size().
/// Uses estimate_job_cost(); free of I/O and thread-safe.
[[nodiscard]] std::vector<std::vector<std::size_t>> plan_shards(
    const std::vector<scenario::BatchJob>& jobs, std::size_t shard_count,
    ShardStrategy strategy);

/// Same split, but weighing jobs by the caller's `costs` vector
/// (e.g. CostModel::price() over prior-run journals) instead of the
/// static heuristic.  `costs` must parallel `jobs` (DistribError
/// otherwise).
[[nodiscard]] std::vector<std::vector<std::size_t>> plan_shards(
    const std::vector<scenario::BatchJob>& jobs, std::size_t shard_count,
    ShardStrategy strategy, const std::vector<double>& costs);

/// Total cost of each planned shard under `costs` — the planner report's
/// raw material.  Indices out of `costs`' range are a DistribError.
[[nodiscard]] std::vector<double> shard_costs(
    const std::vector<std::vector<std::size_t>>& plan, const std::vector<double>& costs);

/// max/min of per-shard totals — the balance figure of merit (1.0 is a
/// perfect split).  Empty or zero-cost shards make the spread infinite;
/// a plan with no shards reports 1.0.
[[nodiscard]] double cost_spread(const std::vector<double>& shard_totals);

// --- manifests -----------------------------------------------------------------

/// One shard's work order, serialized to JSON at plan time.
struct ShardManifest {
  std::string sweep_name;
  std::string sweep_file;        ///< path as given to `shard plan`
  std::uint64_t sweep_hash = 0;  ///< util::fnv1a64 of the sweep file bytes
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  ShardStrategy strategy = ShardStrategy::Balanced;
  std::size_t total_jobs = 0;    ///< full grid size (coverage sanity check)
  std::vector<std::size_t> job_indices;  ///< ascending indices into the grid
};

[[nodiscard]] expctl::Json to_json(const ShardManifest& manifest);
/// Strict parse; unknown keys and structural problems are DistribError.
[[nodiscard]] ShardManifest manifest_from_json(const expctl::Json& j);

/// Verify a manifest against the grid it will run: hash of the sweep
/// bytes, total size, and index bounds.  Throws DistribError on drift.
void validate_manifest(const ShardManifest& manifest, const std::string& sweep_bytes,
                       std::size_t grid_size);

}  // namespace drowsy::distrib

// Oasis-style hybrid consolidation baseline (after Zhi, Bila & de Lara,
// EuroSys 2016), the second comparison system of the paper (§I, §VII).
//
// Oasis colocates VMs whose *observed* idleness overlaps, judging idleness
// from a hypervisor-observable heuristic (the paper cites the VM
// page-dirtying rate, §IV; our substrate's analogue is the noise-filtered
// quanta ledger).  Its matcher checks pairs of VMs — the O(n²) complexity
// the paper contrasts with Drowsy-DC's O(n) per-VM models (§VII) — and it
// looks only at a recent history window, with no multi-scale periodic
// model and no forecast of the next interval.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/consolidation.hpp"
#include "sim/cluster.hpp"

namespace drowsy::baselines {

/// Oasis as a pluggable consolidation policy.  An hour is idle when the
/// VM's activity is below the noise floor (kern::kNoiseFloor, the
/// page-dirtying-style cutoff).
class OasisConsolidation final : public core::ConsolidationPolicy {
 public:
  /// Pairwise-compatibility window: one week of hours.
  static constexpr std::size_t kWindowHours = 168;
  /// Pairs that agree on less than this fraction of the window are not
  /// matched.
  static constexpr double kMinScore = 0.5;

  /// The matcher re-runs every `repack_period_hours` hours.
  explicit OasisConsolidation(sim::Cluster& cluster, int repack_period_hours = 24);

  void run_hour(std::int64_t next_hour) override;

  /// Fraction of the history window where both VMs were in the same
  /// idleness state (both idle or both active).  Exposed for tests.
  [[nodiscard]] double pair_score(sim::VmId a, sim::VmId b) const;

 private:
  void record_hour(std::int64_t hour);
  void repack();

  sim::Cluster& cluster_;
  int repack_period_hours_;
  /// Idleness of each recent hour by VmId, empty for a VM never placed.
  std::vector<std::deque<bool>> idle_history_;
  std::int64_t hours_seen_ = 0;
};

}  // namespace drowsy::baselines

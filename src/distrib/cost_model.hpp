// Measured-cost model: feed journal wall-clock back into shard planning.
//
// `estimate_job_cost` prices a job from its spec alone — a static
// heuristic in arbitrary units, wrong exactly where balance matters most
// (scenarios whose per-request work or trace synthesis defies the
// formula).  But every completed run already wrote its real duration to a
// journal (`wall_ms`), so a re-plan of the same sweep — more shards, a
// crashed fleet, the next replicate batch — can price most jobs from
// observation instead.
//
// The model aggregates mean measured duration at two granularities and
// falls back gracefully:
//
//   1. exact:    (spec-hash, policy)     — the same job, any replicate seed
//   2. scenario: (scenario name, policy) — same scenario, e.g. other axis
//                                          points that changed only seeds
//   3. heuristic: estimate_job_cost() rescaled into milliseconds by the
//                 calibration factor sum(measured) / sum(static estimate)
//                 over the jobs the model *did* measure, so mixed
//                 measured/heuristic grids balance in one common unit.
//
// With no measurements at all, price() degenerates to exactly the static
// heuristic (scale 1.0), so `shard plan --costs` with an empty or
// irrelevant journal plans identically to plain `shard plan`.
//
// Thread-safety: the model is plain mutable state — build it (observe /
// add_journal) on one thread, then price() freely from many.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "distrib/journal.hpp"
#include "scenario/batch_runner.hpp"

namespace drowsy::distrib {

class CostModel {
 public:
  /// Fold one journal row's measured `wall_ms` into the model.
  void observe(const JournalEntry& entry);

  /// observe() every row of a journal's recovered contents.
  void add_journal(const std::vector<JournalEntry>& entries);

  /// Number of rows that contributed a measurement.
  [[nodiscard]] std::size_t measurements() const { return measurements_; }

  /// How a job's price was derived, strongest evidence first.
  enum class Source {
    Measured,   ///< mean over rows with the exact (spec-hash, policy)
    Scenario,   ///< mean over rows sharing (scenario name, policy)
    Heuristic,  ///< estimate_job_cost(), rescaled by the calibration factor
  };

  /// Per-job prices for a whole grid, in one common unit (milliseconds
  /// when anything was measured, heuristic units otherwise).
  struct JobCosts {
    std::vector<double> cost;     ///< parallel to the priced grid
    std::size_t measured = 0;     ///< jobs priced from exact measurements
    std::size_t scenario = 0;     ///< jobs priced from scenario-level means
    std::size_t heuristic = 0;    ///< jobs priced by the calibrated heuristic
    double calibration = 1.0;     ///< ms-per-heuristic-unit scale applied
  };

  /// Price every job of a grid.  Deterministic: the same model contents
  /// and grid always produce the same vector, so costed plans can be
  /// re-emitted after a crash exactly like static ones.
  [[nodiscard]] JobCosts price(const std::vector<scenario::BatchJob>& jobs) const;

 private:
  struct Mean {
    double total_ms = 0.0;
    std::size_t n = 0;
    [[nodiscard]] double mean() const { return total_ms / static_cast<double>(n); }
  };

  std::map<std::string, Mean> exact_;     ///< "spec-hash|policy" -> mean wall
  std::map<std::string, Mean> scenario_;  ///< "scenario|policy" -> mean wall
  std::size_t measurements_ = 0;
};

}  // namespace drowsy::distrib

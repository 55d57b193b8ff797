#include "distrib/cost_model.hpp"

#include "expctl/runs_io.hpp"

namespace drowsy::distrib {

namespace sc = drowsy::scenario;

namespace {

std::string exact_key(const JobKey& key) {
  // Seed deliberately excluded: replicates of one (spec, policy) arm are
  // the same work, and averaging across them is the whole point.
  return expctl::hex64(key.spec_hash) + "|" + key.policy;
}

std::string scenario_key(const std::string& scenario, const std::string& policy) {
  return scenario + "|" + policy;
}

}  // namespace

void CostModel::observe(const JournalEntry& entry) {
  Mean& exact = exact_[exact_key(entry.key)];
  exact.total_ms += entry.wall_ms;
  ++exact.n;
  Mean& scen = scenario_[scenario_key(entry.result.scenario, entry.key.policy)];
  scen.total_ms += entry.wall_ms;
  ++scen.n;
  ++measurements_;
}

void CostModel::add_journal(const std::vector<JournalEntry>& entries) {
  for (const JournalEntry& entry : entries) observe(entry);
}

CostModel::JobCosts CostModel::price(const std::vector<sc::BatchJob>& jobs) const {
  JobCosts out;
  out.cost.assign(jobs.size(), 0.0);
  const std::vector<JobKey> keys = job_keys(jobs);

  // First pass: price what the model has seen, and accumulate the
  // measured-vs-static sums that calibrate the heuristic for the rest.
  std::vector<Source> source(jobs.size(), Source::Heuristic);
  double priced_ms = 0.0;
  double priced_static = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto exact = exact_.find(exact_key(keys[i]));
    if (exact != exact_.end()) {
      source[i] = Source::Measured;
      out.cost[i] = exact->second.mean();
    } else {
      const auto scen = scenario_.find(scenario_key(jobs[i].spec.name, keys[i].policy));
      if (scen != scenario_.end()) {
        source[i] = Source::Scenario;
        out.cost[i] = scen->second.mean();
      } else {
        continue;
      }
    }
    priced_ms += out.cost[i];
    priced_static += estimate_job_cost(jobs[i]);
  }
  if (priced_static > 0.0) out.calibration = priced_ms / priced_static;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    switch (source[i]) {
      case Source::Measured: ++out.measured; break;
      case Source::Scenario: ++out.scenario; break;
      case Source::Heuristic:
        ++out.heuristic;
        out.cost[i] = out.calibration * estimate_job_cost(jobs[i]);
        break;
    }
  }
  return out;
}

}  // namespace drowsy::distrib

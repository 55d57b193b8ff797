// CostModel contract: measured prices where the journals have evidence,
// graceful fallback to scenario-level means and the calibrated static
// heuristic elsewhere — and measured-cost planning must balance the real
// paper catalogue at least as well as the static heuristic it replaces.
#include "distrib/cost_model.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"
#include "scenario/registry.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;

namespace {

sc::BatchJob make_job(const std::string& name, int hosts, int days, std::uint64_t seed) {
  sc::ScenarioSpec spec;
  spec.name = name;
  spec.hosts = hosts;
  spec.vms.push_back(sc::VmGroup{"v", 0, hosts, 2, 2048, sc::TraceSpec{}, false});
  spec.duration_days = days;
  return sc::BatchJob{spec, sc::Policy::DrowsyDc, seed};
}

/// A journal row as a completed run of `job` would have written it.
dt::JournalEntry measured_entry(const sc::BatchJob& job, double wall_ms) {
  dt::JournalEntry e;
  e.key = dt::job_keys({job}).front();
  e.result.scenario = job.spec.name;
  e.result.policy = e.key.policy;
  e.result.seed = e.key.seed;
  e.wall_ms = wall_ms;
  return e;
}

}  // namespace

TEST(CostModel, ExactScenarioAndHeuristicFallbacks) {
  // a: two replicate seeds measured -> exact mean.  b: measured under a
  // *different* spec (other fleet size) but the same scenario name ->
  // scenario-level mean.  c: never seen -> calibrated heuristic.
  const sc::BatchJob a1 = make_job("a", 2, 1, 11);
  const sc::BatchJob a2 = make_job("a", 2, 1, 12);
  const sc::BatchJob b = make_job("b", 3, 2, 21);
  const sc::BatchJob b_variant = make_job("b", 5, 2, 22);
  const sc::BatchJob c = make_job("c", 4, 3, 31);

  dt::CostModel model;
  model.observe(measured_entry(a1, 100.0));
  model.observe(measured_entry(a2, 300.0));
  model.observe(measured_entry(b_variant, 500.0));
  EXPECT_EQ(model.measurements(), 3u);

  const std::vector<sc::BatchJob> grid = {a1, a2, b, c};
  const dt::CostModel::JobCosts priced = model.price(grid);
  ASSERT_EQ(priced.cost.size(), 4u);
  EXPECT_EQ(priced.measured, 2u);
  EXPECT_EQ(priced.scenario, 1u);
  EXPECT_EQ(priced.heuristic, 1u);
  // Exact prices are the replicate mean, shared across seeds of one arm.
  EXPECT_DOUBLE_EQ(priced.cost[0], 200.0);
  EXPECT_DOUBLE_EQ(priced.cost[1], 200.0);
  EXPECT_DOUBLE_EQ(priced.cost[2], 500.0);
  // The unmatched job pays the static heuristic rescaled into ms by the
  // jobs that were priced from measurement.
  const double priced_static = dt::estimate_job_cost(a1) + dt::estimate_job_cost(a2) +
                               dt::estimate_job_cost(b);
  EXPECT_DOUBLE_EQ(priced.calibration, (200.0 + 200.0 + 500.0) / priced_static);
  EXPECT_DOUBLE_EQ(priced.cost[3], priced.calibration * dt::estimate_job_cost(c));
}

TEST(CostModel, NoMeasurementsDegeneratesToStaticHeuristic) {
  const std::vector<sc::BatchJob> grid = {make_job("a", 2, 1, 1), make_job("b", 3, 2, 2)};

  const dt::CostModel model;
  EXPECT_EQ(model.measurements(), 0u);

  const dt::CostModel::JobCosts priced = model.price(grid);
  EXPECT_EQ(priced.measured, 0u);
  EXPECT_EQ(priced.heuristic, 2u);
  EXPECT_DOUBLE_EQ(priced.calibration, 1.0);
  EXPECT_DOUBLE_EQ(priced.cost[0], dt::estimate_job_cost(grid[0]));
  EXPECT_DOUBLE_EQ(priced.cost[1], dt::estimate_job_cost(grid[1]));
  // An empty cost model plans exactly like the static planner.
  EXPECT_EQ(dt::plan_shards(grid, 2, dt::ShardStrategy::Balanced, priced.cost),
            dt::plan_shards(grid, 2, dt::ShardStrategy::Balanced));
}

TEST(CostModel, MeasuredPlanBalancesPaperCatalogueNoWorseThanHeuristic) {
  // The acceptance bar for `shard plan --costs`: on the real catalogue
  // grid, planning against measured costs must leave a max/min shard
  // spread (evaluated under those measured costs) no worse than the
  // static-heuristic plan's.  Measurements are synthesized from the
  // static cost deterministically distorted per job, standing in for the
  // scenarios the heuristic misjudges.
  const std::string path = std::string(DROWSY_SOURCE_DIR) + "/sweeps/paper_catalogue.json";
  const ec::SweepSpec sweep = ec::sweep_from_json(ec::Json::parse(ec::read_file(path)),
                                                  sc::ScenarioRegistry::builtin());
  const std::vector<sc::BatchJob> jobs = ec::expand(sweep);
  ASSERT_GT(jobs.size(), 20u);

  dt::CostModel model;
  const std::vector<dt::JobKey> keys = dt::job_keys(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double distortion =
        0.25 + 1.75 * static_cast<double>(ec::fnv1a64(keys[i].encode()) % 1000) / 1000.0;
    dt::JournalEntry e;
    e.index = i;
    e.key = keys[i];
    e.result.scenario = jobs[i].spec.name;
    e.result.policy = keys[i].policy;
    e.result.seed = keys[i].seed;
    e.wall_ms = dt::estimate_job_cost(jobs[i]) * distortion;
    model.observe(e);
  }

  const dt::CostModel::JobCosts priced = model.price(jobs);
  EXPECT_EQ(priced.heuristic, 0u);  // every job has evidence
  for (const std::size_t shard_count : {3u, 4u, 8u}) {
    const auto measured_plan =
        dt::plan_shards(jobs, shard_count, dt::ShardStrategy::Balanced, priced.cost);
    const auto static_plan = dt::plan_shards(jobs, shard_count, dt::ShardStrategy::Balanced);
    const double measured_spread =
        dt::cost_spread(dt::shard_costs(measured_plan, priced.cost));
    const double static_spread = dt::cost_spread(dt::shard_costs(static_plan, priced.cost));
    EXPECT_LE(measured_spread, static_spread + 1e-9) << shard_count << " shards";
  }
}

#include "distrib/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "expctl/runs_io.hpp"
#include "scenario/registry.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;

namespace {

/// A grid whose jobs have wildly different costs: fleet sizes 1..n VMs
/// and durations 1..n days.
std::vector<sc::BatchJob> uneven_grid(int n) {
  std::vector<sc::BatchJob> jobs;
  for (int i = 1; i <= n; ++i) {
    sc::ScenarioSpec spec;
    spec.name = "uneven" + std::to_string(i);
    spec.hosts = i;
    spec.vms.push_back(sc::VmGroup{"v", 0, i, 2, 2048, sc::TraceSpec{}, false});
    spec.duration_days = i;
    jobs.push_back(sc::BatchJob{spec, sc::Policy::DrowsyDc, static_cast<std::uint64_t>(i)});
  }
  return jobs;
}

/// Every index in exactly one shard.
void expect_partition(const std::vector<std::vector<std::size_t>>& shards, std::size_t n) {
  std::vector<int> seen(n, 0);
  for (const auto& shard : shards) {
    for (std::size_t prev = 0, k = 0; k < shard.size(); ++k) {
      ASSERT_LT(shard[k], n);
      if (k > 0) {
        EXPECT_GT(shard[k], prev) << "indices must ascend within a shard";
      }
      prev = shard[k];
      ++seen[shard[k]];
    }
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1) << "index " << i;
}

}  // namespace

TEST(Shard, BalancedPartitionsTheGrid) {
  const auto jobs = uneven_grid(11);
  for (const std::size_t shards : {1u, 3u, 4u, 16u}) {
    const auto plan = dt::plan_shards(jobs, shards, dt::ShardStrategy::Balanced);
    ASSERT_EQ(plan.size(), shards);
    expect_partition(plan, jobs.size());
  }
  EXPECT_THROW(static_cast<void>(dt::plan_shards(jobs, 0, dt::ShardStrategy::Balanced)),
               dt::DistribError);
}

TEST(Shard, BalancedEvensOutEstimatedCost) {
  const auto jobs = uneven_grid(12);
  const auto plan = dt::plan_shards(jobs, 3, dt::ShardStrategy::Balanced);
  std::vector<double> load;
  double total = 0.0;
  for (const auto& shard : plan) {
    double cost = 0.0;
    for (const std::size_t i : shard) cost += dt::estimate_job_cost(jobs[i]);
    load.push_back(cost);
    total += cost;
  }
  const double target = total / 3.0;
  // Equal-count blocks in grid order would put all the fat jobs in the
  // last shard (~2.1x the mean); balanced LPT must stay close to the mean.
  for (const double cost : load) {
    EXPECT_GT(cost, 0.6 * target);
    EXPECT_LT(cost, 1.4 * target);
  }
  // Determinism: planning twice yields the identical layout.
  EXPECT_EQ(dt::plan_shards(jobs, 3, dt::ShardStrategy::Balanced), plan);
}

TEST(Shard, CallerCostsDriveBalancedPlanning) {
  const auto jobs = uneven_grid(12);
  // Invert the static ordering: the "small" jobs are the expensive ones.
  std::vector<double> costs(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    costs[i] = 1.0 + dt::estimate_job_cost(jobs[jobs.size() - 1 - i]);
  }
  const auto plan = dt::plan_shards(jobs, 3, dt::ShardStrategy::Balanced, costs);
  expect_partition(plan, jobs.size());

  const std::vector<double> totals = dt::shard_costs(plan, costs);
  double total = 0.0;
  for (const double c : totals) total += c;
  for (const double c : totals) {
    EXPECT_GT(c, 0.6 * total / 3.0);
    EXPECT_LT(c, 1.4 * total / 3.0);
  }
  // The caller's costs, not the heuristic, must shape the layout.
  EXPECT_NE(plan, dt::plan_shards(jobs, 3, dt::ShardStrategy::Balanced));

  const std::vector<double> wrong_size(jobs.size() - 1, 1.0);
  EXPECT_THROW(
      static_cast<void>(dt::plan_shards(jobs, 3, dt::ShardStrategy::Balanced, wrong_size)),
      dt::DistribError);
}

TEST(Shard, ShardCostsAndSpread) {
  EXPECT_DOUBLE_EQ(dt::cost_spread({2.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(dt::cost_spread({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(dt::cost_spread({}), 1.0);
  EXPECT_TRUE(std::isinf(dt::cost_spread({1.0, 0.0})));

  const std::vector<std::vector<std::size_t>> plan = {{0, 2}, {1}};
  const std::vector<double> totals = dt::shard_costs(plan, {1.0, 10.0, 100.0});
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_DOUBLE_EQ(totals[0], 101.0);
  EXPECT_DOUBLE_EQ(totals[1], 10.0);
  EXPECT_THROW(static_cast<void>(dt::shard_costs({{3}}, {1.0, 2.0})), dt::DistribError);
}

TEST(Shard, JobKeysMatchPerJobHashing) {
  const auto& registry = sc::ScenarioRegistry::builtin();
  std::vector<sc::BatchJob> jobs = sc::cross(
      {*registry.find("paper-testbed"), *registry.find("dev-fleet-idle")},
      {sc::Policy::DrowsyDc, sc::Policy::Oasis}, 2);
  const auto keys = dt::job_keys(jobs);
  ASSERT_EQ(keys.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(keys[i] == dt::job_key(jobs[i])) << i;
  }
  // Distinct (spec, policy, seed) triples get distinct encodings.
  std::vector<std::string> encoded;
  for (const auto& k : keys) encoded.push_back(k.encode());
  std::sort(encoded.begin(), encoded.end());
  EXPECT_EQ(std::adjacent_find(encoded.begin(), encoded.end()), encoded.end());
}

TEST(Shard, ManifestRoundTripAndValidation) {
  dt::ShardManifest m;
  m.sweep_name = "catalogue";
  m.sweep_file = "sweeps/catalogue.json";
  m.sweep_hash = ec::fnv1a64("file-bytes");
  m.shard_index = 1;
  m.shard_count = 3;
  m.total_jobs = 9;
  m.job_indices = {1, 4, 7};

  const ec::Json j = dt::to_json(m);
  const dt::ShardManifest back = dt::manifest_from_json(j);
  EXPECT_EQ(back.sweep_name, m.sweep_name);
  EXPECT_EQ(back.sweep_hash, m.sweep_hash);
  EXPECT_EQ(back.shard_index, 1u);
  EXPECT_EQ(back.strategy, dt::ShardStrategy::Balanced);
  EXPECT_EQ(j.at("strategy").as_string(), "balanced");
  EXPECT_EQ(back.job_indices, m.job_indices);
  EXPECT_EQ(dt::to_json(back).dump(), j.dump());

  // The run-time guards: edited sweep bytes, wrong grid size, bad index.
  EXPECT_NO_THROW(dt::validate_manifest(m, "file-bytes", 9));
  EXPECT_THROW(dt::validate_manifest(m, "edited-bytes", 9), dt::DistribError);
  EXPECT_THROW(dt::validate_manifest(m, "file-bytes", 12), dt::DistribError);
  dt::ShardManifest oob = m;
  oob.job_indices = {1, 4, 9};
  EXPECT_THROW(dt::validate_manifest(oob, "file-bytes", 9), dt::DistribError);
}

TEST(Shard, ManifestParseIsStrict) {
  dt::ShardManifest m;
  m.sweep_name = "s";
  m.total_jobs = 2;
  m.job_indices = {0, 1};
  ec::Json j = dt::to_json(m);
  j.set("extra", 1);
  EXPECT_THROW(static_cast<void>(dt::manifest_from_json(j)), dt::DistribError);

  ec::Json unsorted = dt::to_json(m);
  ec::Json indices = ec::Json::array();
  indices.push_back(std::uint64_t{1});
  indices.push_back(std::uint64_t{0});
  unsorted.set("job_indices", std::move(indices));
  EXPECT_THROW(static_cast<void>(dt::manifest_from_json(unsorted)), dt::DistribError);

  EXPECT_THROW(static_cast<void>(dt::shard_strategy_from_string("diagonal")),
               dt::DistribError);
  // "balanced" is the only strategy a manifest may name.
  for (const char* retired : {"contiguous", "strided"}) {
    ec::Json old = dt::to_json(m);
    old.set("strategy", retired);
    EXPECT_THROW(static_cast<void>(dt::manifest_from_json(old)), dt::DistribError) << retired;
  }
}

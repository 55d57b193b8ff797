#include "distrib/shard.hpp"

#include <algorithm>
#include <limits>

#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"

namespace drowsy::distrib {

namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;

std::string JobKey::encode() const {
  return ec::hex64(spec_hash) + "|" + policy + "|" + std::to_string(seed);
}

JobKey job_key(const sc::BatchJob& job) {
  JobKey key;
  key.spec_hash = ec::spec_hash(job.spec);
  key.policy = sc::to_string(job.policy);
  key.seed = job.resolved_seed();
  return key;
}

std::vector<JobKey> job_keys(const std::vector<sc::BatchJob>& jobs) {
  std::vector<JobKey> keys;
  keys.reserve(jobs.size());
  // Grid order repeats each spec across its policy x seed block; reuse the
  // previous hash whenever the serialized spec is unchanged.
  std::string prev_dump;
  std::uint64_t prev_hash = 0;
  for (const sc::BatchJob& job : jobs) {
    std::string dump = ec::to_json(job.spec).dump(0);
    if (dump != prev_dump) {
      prev_hash = ec::fnv1a64(dump);
      prev_dump = std::move(dump);
    }
    JobKey key;
    key.spec_hash = prev_hash;
    key.policy = sc::to_string(job.policy);
    key.seed = job.resolved_seed();
    keys.push_back(std::move(key));
  }
  return keys;
}

// --- planning ------------------------------------------------------------------

const char* to_string(ShardStrategy /*s*/) { return "balanced"; }

ShardStrategy shard_strategy_from_string(const std::string& name) {
  if (name == "balanced") return ShardStrategy::Balanced;
  throw DistribError("unknown shard strategy \"" + name + "\" (known: balanced)");
}

double estimate_job_cost(const sc::BatchJob& job) {
  const sc::ScenarioSpec& spec = job.spec;
  const double vms = static_cast<double>(spec.total_vms());
  // Simulated VM-days: pretraining replays traces hour by hour, the main
  // phase additionally pays per-request work.
  const double sim_days =
      static_cast<double>(spec.pretrain_days) +
      static_cast<double>(spec.duration_days) * (1.0 + spec.request_rate_per_hour / 100.0);
  double trace_years = 0.0;
  for (const sc::VmGroup& g : spec.vms) {
    // A shared workload is synthesized once per group; per-VM workloads
    // once per member (the TraceCache dedupes across policy arms, not
    // across distinct seeds).
    const double copies = g.shared_workload ? 1.0 : static_cast<double>(g.count);
    trace_years += copies * static_cast<double>(g.workload.years);
  }
  // One VM-year of trace synthesis costs on the order of one simulated
  // VM-month; 30 keeps the two terms on a comparable scale.
  return vms * sim_days + 30.0 * trace_years;
}

std::vector<std::vector<std::size_t>> plan_shards(const std::vector<sc::BatchJob>& jobs,
                                                  std::size_t shard_count,
                                                  ShardStrategy strategy) {
  std::vector<double> costs(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) costs[i] = estimate_job_cost(jobs[i]);
  return plan_shards(jobs, shard_count, strategy, costs);
}

std::vector<std::vector<std::size_t>> plan_shards(const std::vector<sc::BatchJob>& jobs,
                                                  std::size_t shard_count,
                                                  ShardStrategy /*strategy*/,
                                                  const std::vector<double>& costs) {
  if (shard_count == 0) throw DistribError("shard count must be at least 1");
  if (costs.size() != jobs.size()) {
    throw DistribError("cost vector has " + std::to_string(costs.size()) +
                       " entries for a " + std::to_string(jobs.size()) + "-job grid");
  }
  const std::size_t n = jobs.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return costs[a] > costs[b];  // cost desc; stable keeps index asc on ties
  });
  std::vector<std::vector<std::size_t>> shards(shard_count);
  std::vector<double> load(shard_count, 0.0);
  for (const std::size_t i : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < shard_count; ++s) {
      if (load[s] < load[lightest]) lightest = s;
    }
    shards[lightest].push_back(i);
    load[lightest] += costs[i];
  }
  for (auto& shard : shards) std::sort(shard.begin(), shard.end());
  return shards;
}

std::vector<double> shard_costs(const std::vector<std::vector<std::size_t>>& plan,
                                const std::vector<double>& costs) {
  std::vector<double> totals(plan.size(), 0.0);
  for (std::size_t s = 0; s < plan.size(); ++s) {
    for (const std::size_t i : plan[s]) {
      if (i >= costs.size()) {
        throw DistribError("plan index " + std::to_string(i) + " out of range for a " +
                           std::to_string(costs.size()) + "-entry cost vector");
      }
      totals[s] += costs[i];
    }
  }
  return totals;
}

double cost_spread(const std::vector<double>& shard_totals) {
  if (shard_totals.empty()) return 1.0;
  double min = shard_totals.front();
  double max = shard_totals.front();
  for (const double c : shard_totals) {
    min = std::min(min, c);
    max = std::max(max, c);
  }
  if (min <= 0.0) return std::numeric_limits<double>::infinity();
  return max / min;
}

// --- manifests -----------------------------------------------------------------

ec::Json to_json(const ShardManifest& manifest) {
  ec::Json j = ec::Json::object();
  j.set("sweep_name", manifest.sweep_name);
  j.set("sweep_file", manifest.sweep_file);
  j.set("sweep_hash", ec::hex64(manifest.sweep_hash));
  j.set("shard_index", static_cast<std::uint64_t>(manifest.shard_index));
  j.set("shard_count", static_cast<std::uint64_t>(manifest.shard_count));
  j.set("strategy", to_string(manifest.strategy));
  j.set("total_jobs", static_cast<std::uint64_t>(manifest.total_jobs));
  ec::Json indices = ec::Json::array();
  for (const std::size_t i : manifest.job_indices) {
    indices.push_back(static_cast<std::uint64_t>(i));
  }
  j.set("job_indices", std::move(indices));
  return j;
}

namespace {

/// Rethrow Json/Spec accessor failures as DistribError with the field name.
template <typename Fn>
auto manifest_field(const char* key, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const ec::JsonError& e) {
    throw DistribError(std::string("manifest ") + key + ": " + e.what());
  } catch (const ec::SpecError& e) {
    throw DistribError(std::string("manifest ") + key + ": " + e.what());
  }
}

}  // namespace

ShardManifest manifest_from_json(const ec::Json& j) {
  if (!j.is_object()) throw DistribError("manifest: expected an object");
  try {
    ec::check_keys(j, "manifest",
                   {"sweep_name", "sweep_file", "sweep_hash", "shard_index",
                    "shard_count", "strategy", "total_jobs", "job_indices"});
  } catch (const ec::SpecError& e) {
    throw DistribError(e.what());  // already prefixed "manifest: ..."
  }
  ShardManifest m;
  m.sweep_name = manifest_field("sweep_name", [&] { return j.at("sweep_name").as_string(); });
  m.sweep_file = manifest_field("sweep_file", [&] { return j.at("sweep_file").as_string(); });
  m.sweep_hash = manifest_field(
      "sweep_hash", [&] { return ec::parse_hex64(j.at("sweep_hash").as_string()); });
  m.shard_index = manifest_field("shard_index", [&] {
    return static_cast<std::size_t>(j.at("shard_index").as_uint());
  });
  m.shard_count = manifest_field("shard_count", [&] {
    return static_cast<std::size_t>(j.at("shard_count").as_uint());
  });
  m.strategy = shard_strategy_from_string(
      manifest_field("strategy", [&] { return j.at("strategy").as_string(); }));
  m.total_jobs = manifest_field(
      "total_jobs", [&] { return static_cast<std::size_t>(j.at("total_jobs").as_uint()); });
  const ec::Json& indices = manifest_field("job_indices", [&]() -> const ec::Json& {
    return j.at("job_indices");
  });
  for (const ec::Json& v : manifest_field("job_indices", [&]() -> const std::vector<ec::Json>& {
         return indices.elements();
       })) {
    m.job_indices.push_back(manifest_field("job_indices", [&] {
      return static_cast<std::size_t>(v.as_uint());
    }));
  }
  if (m.shard_count == 0) throw DistribError("manifest: shard_count must be at least 1");
  if (m.shard_index >= m.shard_count) {
    throw DistribError("manifest: shard_index " + std::to_string(m.shard_index) +
                       " out of range for shard_count " + std::to_string(m.shard_count));
  }
  for (std::size_t i = 1; i < m.job_indices.size(); ++i) {
    if (m.job_indices[i] <= m.job_indices[i - 1]) {
      throw DistribError("manifest: job_indices must be strictly ascending");
    }
  }
  return m;
}

void validate_manifest(const ShardManifest& manifest, const std::string& sweep_bytes,
                       std::size_t grid_size) {
  const std::uint64_t hash = ec::fnv1a64(sweep_bytes);
  if (hash != manifest.sweep_hash) {
    throw DistribError("sweep file does not match the manifest (hash " + ec::hex64(hash) +
                       " != planned " + ec::hex64(manifest.sweep_hash) +
                       "); re-run 'shard plan' after editing a sweep");
  }
  if (grid_size != manifest.total_jobs) {
    throw DistribError("expanded grid has " + std::to_string(grid_size) +
                       " jobs but the manifest was planned over " +
                       std::to_string(manifest.total_jobs));
  }
  for (const std::size_t i : manifest.job_indices) {
    if (i >= grid_size) {
      throw DistribError("manifest job index " + std::to_string(i) +
                         " out of range for a " + std::to_string(grid_size) + "-job grid");
    }
  }
}

}  // namespace drowsy::distrib

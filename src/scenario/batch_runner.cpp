#include "scenario/batch_runner.hpp"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "scenario/trace_cache.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace drowsy::scenario {

std::vector<BatchJob> cross(const std::vector<ScenarioSpec>& specs,
                            const std::vector<Policy>& policies,
                            std::size_t replicates) {
  std::vector<BatchJob> jobs;
  jobs.reserve(specs.size() * policies.size() * replicates);
  for (const ScenarioSpec& spec : specs) {
    for (const Policy policy : policies) {
      for (std::size_t r = 0; r < replicates; ++r) {
        const std::uint64_t seed = r == 0 ? spec.seed : mix_seed(spec.seed, r);
        jobs.push_back(BatchJob{spec, policy, seed});
      }
    }
  }
  return jobs;
}

BatchRunner::BatchRunner(std::size_t threads) : pool_(threads) {}

std::vector<RunResult> BatchRunner::run(const std::vector<BatchJob>& jobs) {
  return run(jobs, CompletionCallback{});
}

std::vector<RunResult> BatchRunner::run(const std::vector<BatchJob>& jobs,
                                        const CompletionCallback& on_complete) {
  return run(jobs, on_complete, RunProbe{});
}

namespace {

/// Plans every job's trace uses on `cache` and returns the execution
/// order: jobs grouped by the first appearance of their first trace key,
/// groups in submission order.  The policy arms of a replicate share
/// that key, so they run back to back and their traces are released
/// together.  A job with no plannable trace is a group of its own.
std::vector<std::size_t> plan_order(const std::vector<BatchJob>& jobs, TraceCache& cache) {
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<TraceKey, std::size_t, TraceKeyHash> group_of;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::vector<TraceKey> keys = cache.plan(jobs[i].spec, jobs[i].resolved_seed());
    std::size_t group = groups.size();
    if (!keys.empty()) group = group_of.try_emplace(keys.front(), group).first->second;
    if (group == groups.size()) groups.emplace_back();
    groups[group].push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(jobs.size());
  for (const std::vector<std::size_t>& group : groups) {
    order.insert(order.end(), group.begin(), group.end());
  }
  return order;
}

}  // namespace

std::vector<RunResult> BatchRunner::run(const std::vector<BatchJob>& jobs,
                                        const CompletionCallback& on_complete,
                                        const RunProbe& probe) {
  std::vector<RunResult> results(jobs.size());
  TraceCache trace_cache;  // shared across the batch; every policy arm of a
                           // (scenario, seed) replicate reuses the same traces
  const std::vector<std::size_t> order = plan_order(jobs, trace_cache);
  std::mutex complete_mutex;
  const RunProbe* probe_ptr = probe ? &probe : nullptr;
  // parallel_for rethrows the first failing run's exception here.
  util::parallel_for(pool_, jobs.size(), [&](std::size_t k) {
    const std::size_t i = order[k];
    const BatchJob& job = jobs[i];
    const std::uint64_t seed = job.resolved_seed();
    const auto start = std::chrono::steady_clock::now();
    results[i] = run_one(job.spec, job.policy, seed, &trace_cache, probe_ptr);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (on_complete) {
      const std::lock_guard<std::mutex> lock(complete_mutex);
      on_complete(i, results[i], wall_ms);
    }
  });
  last_trace_hits_ = trace_cache.hits();
  last_trace_misses_ = trace_cache.misses();
  return results;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

namespace {

/// ';'-joined per-host fractions — one CSV cell, no quoting needed.
std::string host_fractions_cell(const RunResult& r) {
  std::string cell;
  for (std::size_t i = 0; i < r.host_suspend_fraction.size(); ++i) {
    if (i > 0) cell += ";";
    cell += num(r.host_suspend_fraction[i]);
  }
  return cell;
}

}  // namespace

std::string to_csv(const std::vector<RunResult>& results) {
  std::string out =
      "scenario,policy,seed,simulated_hours,kwh,suspend_fraction,sla_attainment,"
      "wake_p99_ms,requests,wakes,migrations,suspends,host_suspend_fractions,"
      "switch_queue_delay_p99_ms,wol_frames,host_unreachable_s\n";
  for (const RunResult& r : results) {
    out += r.scenario + "," + r.policy + "," + std::to_string(r.seed) + "," +
           std::to_string(r.simulated_hours) + "," + num(r.kwh) + "," +
           num(r.suspend_fraction) + "," + num(r.sla_attainment) + "," +
           num(r.wake_latency_p99_ms) + "," + std::to_string(r.requests) + "," +
           std::to_string(r.wakes) + "," + std::to_string(r.migrations) + "," +
           std::to_string(r.suspends) + "," + host_fractions_cell(r) + "," +
           num(r.switch_queue_delay_p99_ms) + "," + std::to_string(r.wol_frames) +
           "," + num(r.host_unreachable_s) + "\n";
  }
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    DROWSY_LOG_ERROR("scenario", "cannot open %s for writing", path.c_str());
    return false;
  }
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool closed = std::fclose(f) == 0;
  const bool ok = written == content.size() && closed;
  if (!ok) DROWSY_LOG_ERROR("scenario", "short write to %s", path.c_str());
  return ok;
}

}  // namespace drowsy::scenario

#include "traced_pass.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "distrib/journal.hpp"
#include "distrib/merge.hpp"
#include "distrib/shard.hpp"
#include "expctl/report.hpp"
#include "scenario/trace_cache.hpp"
#include "util/log.hpp"
#include "util/sim_time.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace sc = drowsy::scenario;
namespace dt = drowsy::distrib;

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void SpanLog::add(std::string name, std::int64_t id, std::int64_t parent,
                  std::int64_t start_ns, std::int64_t end_ns) {
  Span span{std::move(name), id, parent, start_ns, end_ns, std::this_thread::get_id()};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::int64_t SpanLog::add(std::string name, std::int64_t parent, std::int64_t start_ns,
                          std::int64_t end_ns) {
  const std::int64_t id = next_id();
  add(std::move(name), id, parent, start_ns, end_ns);
  return id;
}

std::vector<Span> SpanLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::vector<Span> spans = snapshot();
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  std::map<std::thread::id, int> tids;
  for (const Span& s : spans) tids.emplace(s.thread, static_cast<int>(tids.size()) + 1);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write span file " + path);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": %lld}}%s\n",
                 s.name.c_str(), tids[s.thread], static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("short write to span file " + path);
}

void LayerCounters::merge(const LayerCounters& o) {
  profile.merge(o.profile);
  events += o.events;
  core.cascades += o.core.cascades;
  core.re_anchors += o.core.re_anchors;
  core.far_events += o.core.far_events;
  core.far_refills += o.core.far_refills;
  core.batches += o.core.batches;
  core.slab_slots = std::max(core.slab_slots, o.core.slab_slots);
  core.slab_chunks = std::max(core.slab_chunks, o.core.slab_chunks);
  suspend.checks += o.suspend.checks;
  suspend.suspends += o.suspend.suspends;
  suspend.blocked_by_grace += o.suspend.blocked_by_grace;
  suspend.blocked_by_running += o.suspend.blocked_by_running;
  suspend.blocked_by_io += o.suspend.blocked_by_io;
  suspend.blocked_by_sessions += o.suspend.blocked_by_sessions;
  suspend.blocked_by_imminent_timer += o.suspend.blocked_by_imminent_timer;
  waking.packet_wakes += o.waking.packet_wakes;
  waking.scheduled_wakes += o.waking.scheduled_wakes;
  waking.analyzed_packets += o.waking.analyzed_packets;
  vm_hours_pretrained += o.vm_hours_pretrained;
  runs += o.runs;
  build_ns += o.build_ns;
  pretrain_ns += o.pretrain_ns;
  run_hours_ns += o.run_hours_ns;
  harvest_ns += o.harvest_ns;
  teardown_ns += o.teardown_ns;
  append_ns += o.append_ns;
}

namespace {

void add_waking(drowsy::core::WakingStats& into, const drowsy::core::WakingStats& s) {
  into.packet_wakes += s.packet_wakes;
  into.scheduled_wakes += s.scheduled_wakes;
  into.analyzed_packets += s.analyzed_packets;
}

/// One job through the layers, each call's span recorded under `job_id`;
/// returns its counters.  Mirrors run_one().  Reading the counters is the
/// benchmark's own work and gets no span.
LayerCounters trace_job(const sc::BatchJob& job, std::size_t index, const dt::JobKey& key,
                        sc::TraceCache& cache, dt::JournalWriter& journal,
                        std::mutex& journal_mutex, SpanLog& log, std::int64_t job_id,
                        sc::RunResult& result) {
  LayerCounters c;
  const std::uint64_t seed = job.resolved_seed();
  const sc::ScenarioSpec& spec = job.spec;

  const std::int64_t t0 = now_ns();
  std::unique_ptr<sc::ScenarioRun> run = sc::build(spec, job.policy, seed, &cache);
  run->queue.set_profile(&c.profile);
  const std::int64_t t1 = now_ns();
  const std::int64_t pretrain_hours =
      static_cast<std::int64_t>(spec.pretrain_days) * drowsy::util::kHoursPerDay;
  run->controller->pretrain_models(pretrain_hours);
  const std::int64_t t2 = now_ns();
  std::function<void(std::int64_t)> on_hour_end;
  if (run->net) {
    on_hour_end = [fabric = run->net.get()](std::int64_t h) { fabric->on_hour_end(h); };
  }
  run->controller->run_hours(
      static_cast<std::int64_t>(spec.duration_days) * drowsy::util::kHoursPerDay,
      on_hour_end);
  const std::int64_t t3 = now_ns();
  result = sc::harvest(spec.name, *run);
  const std::int64_t t4 = now_ns();

  run->queue.set_profile(nullptr);
  c.events = run->queue.executed();
  c.core = run->queue.core_stats();
  for (const auto& host : run->cluster.hosts()) {
    const drowsy::core::SuspendStats& s = run->controller->suspend_module(host->id()).stats();
    c.suspend.checks += s.checks;
    c.suspend.suspends += s.suspends;
    c.suspend.blocked_by_grace += s.blocked_by_grace;
    c.suspend.blocked_by_running += s.blocked_by_running;
    c.suspend.blocked_by_io += s.blocked_by_io;
    c.suspend.blocked_by_sessions += s.blocked_by_sessions;
    c.suspend.blocked_by_imminent_timer += s.blocked_by_imminent_timer;
  }
  add_waking(c.waking, run->controller->waking_primary().stats());
  if (const drowsy::core::WakingModule* standby = run->controller->waking_standby()) {
    add_waking(c.waking, standby->stats());
  }
  c.vm_hours_pretrained =
      static_cast<std::uint64_t>(pretrain_hours) * run->cluster.vms().size();
  const std::int64_t t5 = now_ns();
  run.reset();
  const std::int64_t t6 = now_ns();

  dt::JournalEntry entry;
  entry.index = index;
  entry.key = key;
  entry.result = result;
  entry.wall_ms = static_cast<double>(t6 - t0) / 1e6;
  std::int64_t t7 = 0;
  std::int64_t t8 = 0;
  {
    const std::lock_guard<std::mutex> lock(journal_mutex);
    t7 = now_ns();
    journal.append(entry);
    t8 = now_ns();
  }

  log.add("scenario.build", job_id, t0, t1);
  log.add("core.pretrain_models", job_id, t1, t2);
  log.add("core.run_hours", job_id, t2, t3);
  log.add("scenario.harvest", job_id, t3, t4);
  log.add("scenario.teardown", job_id, t5, t6);
  log.add("distrib.journal_append", job_id, t7, t8);

  c.runs = 1;
  c.build_ns = t1 - t0;
  c.pretrain_ns = t2 - t1;
  c.run_hours_ns = t3 - t2;
  c.harvest_ns = t4 - t3;
  c.teardown_ns = t6 - t5;
  c.append_ns = t8 - t7;
  return c;
}

}  // namespace

TracedSweep run_traced(const std::vector<sc::BatchJob>& jobs,
                       const std::vector<std::size_t>& order, std::size_t threads,
                       const std::string& journal_path, SpanLog& log, std::int64_t parent) {
  TracedSweep out;
  out.results.resize(jobs.size());
  const std::vector<dt::JobKey> keys = dt::job_keys(jobs);
  sc::TraceCache cache;
  dt::JournalWriter journal(journal_path, 0);
  std::mutex journal_mutex;
  std::mutex counters_mutex;
  drowsy::util::ThreadPool pool(threads);

  const std::int64_t start = now_ns();
  // The "job" span is the whole pool task, timed apart from the layer
  // calls inside it, so their coverage of it is a real measurement.
  drowsy::util::parallel_for(pool, jobs.size(), [&](std::size_t k) {
    const std::size_t i = order[k];
    const std::int64_t job_id = log.next_id();
    const std::int64_t task_start = now_ns();
    try {
      const LayerCounters c = trace_job(jobs[i], i, keys[i], cache, journal, journal_mutex,
                                        log, job_id, out.results[i]);
      const std::lock_guard<std::mutex> lock(counters_mutex);
      out.counters.merge(c);
    } catch (const std::exception& e) {
      DROWSY_LOG_ERROR("perfbench", "traced run %zu failed: %s", i, e.what());
      const std::lock_guard<std::mutex> lock(counters_mutex);
      ++out.failed_runs;
    }
    log.add("job", job_id, parent, task_start, now_ns());
  });
  const std::int64_t ran = now_ns();
  out.wall_ns = ran - start;
  out.trace_hits = cache.hits();
  out.trace_misses = cache.misses();

  const dt::JournalContents contents = dt::read_journal(journal_path);
  const std::int64_t read = now_ns();
  try {
    out.merged = dt::merge_journals(jobs, contents.entries);
  } catch (const std::exception& e) {
    DROWSY_LOG_ERROR("perfbench", "traced merge failed: %s", e.what());
  }
  const std::int64_t merged = now_ns();
  log.add("distrib.read_journal", parent, ran, read);
  log.add("distrib.merge_journals", parent, read, merged);
  out.merge_ns = merged - ran;

  const auto rows = drowsy::expctl::summarize(out.merged);
  const auto verdicts = drowsy::expctl::compare_policies(out.merged);
  out.emitted_csv = sc::to_csv(out.merged);
  out.stats_csv = drowsy::expctl::to_csv(rows) + drowsy::expctl::to_csv(verdicts);
  const std::int64_t emitted = now_ns();
  log.add("expctl.emit", parent, merged, emitted);
  out.emit_ns = emitted - merged;
  return out;
}

}  // namespace perfbench

// sweep_bench: the repository's end-to-end and per-layer benchmark.
//
//   sweep_bench --workload catalogue|warmup|queue --seed N --seconds S
//               --trace 0|1 --root DIR --work-dir DIR [--reduced]
//               [--spans FILE]
//
// --trace 0 (untraced pass) repeats the workload's sweep for S seconds
// and reports the end-to-end metrics; --trace 1 (traced pass) alternates
// an untraced sweep with a traced one (traced_pass.hpp) and reports the
// per-layer metrics, writing every span to a Chrome-trace file.  Either
// way the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit status is non-zero when any output check failed.
//
// Each workload's job grid is fixed, so the simulated metrics and the
// runs-CSV digest repeat exactly and are checked against the digest
// recorded below.  --seed fixes the order jobs are submitted in (the
// BatchRunner queue, or which manifest the daemons claim first); seed 0
// keeps grid order.  Seeded grids would make the simulated metrics seed
// noise: a one-day warm-up run sees zero to three wakes, so its wake
// p99 swings by half between seeds.
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "distrib/daemon.hpp"
#include "distrib/journal.hpp"
#include "distrib/merge.hpp"
#include "distrib/shard.hpp"
#include "expctl/json.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"
#include "obs/event_tag.hpp"
#include "obs/snapshot.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"
#include "traced_pass.hpp"

namespace {

namespace sc = drowsy::scenario;
namespace ec = drowsy::expctl;
namespace dt = drowsy::distrib;
namespace fs = std::filesystem;
using perfbench::now_ns;

constexpr std::size_t kThreads = 4;          ///< worker threads: one per core of a 4-core host
constexpr std::size_t kDaemons = 2;          ///< queue: in-process daemons
constexpr std::size_t kDaemonThreads = 2;    ///< queue: BatchRunner threads each
constexpr std::size_t kJobsPerTask = 2;      ///< queue: jobs per manifest
constexpr std::size_t kSetupSamples = 8;     ///< set-up samples timed before each sweep
constexpr std::size_t kSetupRepeats = 32;    ///< back-to-back set-ups per sample

struct Workload {
  const char* name;
  const char* sweep_file;          ///< relative to --root
  std::size_t replicates;          ///< 0 = the file's own
  std::size_t reduced_replicates;  ///< --reduced (the benchmark's own test)
  bool queue;                      ///< drained by daemons instead of BatchRunner
  // fnv1a64 of the runs CSV in grid order (the bytes `drowsy_sweep run
  // --runs-csv` writes).  A change that only speeds the simulator up must
  // leave these unchanged; one that changes results on purpose updates
  // them and says why.
  const char* digest;
  const char* reduced_digest;
};

// catalogue: the ROADMAP's unit of speed, dominated by the event core.
// warmup: a year of model warm-up per VM and one simulated day, so core
//   pretraining, trace synthesis and replay dominate.
// queue: the netsim-storm grid through the distrib path (plan, claim,
//   lease, journal, snapshot flush, merge) with switch contention and WoL.
constexpr Workload kWorkloads[] = {
    {"catalogue", "sweeps/paper_catalogue.json", 0, 1, false, "5bc176922990ffe8",
     "0d9927836c720930"},
    {"warmup", "perfbench/warmup.json", 0, 2, false, "4a561e062ed4e89f", "2453ea384e4eb2cc"},
    {"queue", "sweeps/netsim_storm.json", 15, 1, true, "bcde28c89464a637", "0b4278711cc4cce0"},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool reduced = false;
  std::string root;
  std::string work_dir;
  std::string spans;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload catalogue|warmup|queue --seed N --seconds S"
               " --trace 0|1 --root DIR --work-dir DIR [--reduced] [--spans FILE]\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    const std::string flag = argv[i];
    if (flag == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) usage(argv[0]);
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--reduced") {
      a.reduced = true;
    } else if (flag == "--root") {
      a.root = value();
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else if (flag == "--spans") {
      a.spans = value();
    } else {
      usage(argv[0]);
    }
  }
  if (a.workload == nullptr || a.root.empty() || a.work_dir.empty() || a.seconds <= 0.0) {
    usage(argv[0]);
  }
  return a;
}

/// The build configuration every result carries; compare.py refuses to
/// compare results whose configurations differ.
ec::Json build_config() {
  ec::Json j = ec::Json::object();
  j.set("compiler", PERFBENCH_CXX_ID);
  j.set("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  j.set("ndebug", true);
#else
  j.set("ndebug", false);
#endif
#ifdef DROWSY_FAULT_INJECTION
  j.set("fault_injection", true);
#else
  j.set("fault_injection", false);
#endif
#if defined(__SANITIZE_ADDRESS__)
  j.set("sanitizer", "address");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  j.set("sanitizer", "address");
#else
  j.set("sanitizer", "none");
#endif
#else
  j.set("sanitizer", "none");
#endif
#ifdef DROWSY_REFERENCE_EVENT_CORE
  j.set("event_core", "reference");
#else
  j.set("event_core", "wheel");
#endif
  return j;
}

// --- statistics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: at least (1-q)·n samples lie at or above it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --- set-up --------------------------------------------------------------------

/// Sweep load + expand: the set-up every workload pays.
struct Setup {
  ec::SweepSpec sweep;
  std::vector<sc::BatchJob> jobs;  ///< grid order
  std::vector<std::size_t> order;  ///< grid indices in submission order
};

/// A seeded permutation of [0, n); the identity for seed 0.
std::vector<std::size_t> submission_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  for (std::size_t i = n; seed != 0 && i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  return order;
}

/// Parse the workload's sweep file and apply its replicate count.
ec::SweepSpec load_sweep(const Args& args) {
  const Workload& w = *args.workload;
  ec::SweepSpec sweep =
      ec::sweep_from_json(ec::Json::parse(ec::read_file(args.root + "/" + w.sweep_file)),
                          sc::ScenarioRegistry::builtin());
  const std::size_t replicates = args.reduced ? w.reduced_replicates : w.replicates;
  if (replicates > 0) sweep.replicates = replicates;
  return sweep;
}

Setup load_and_expand(const Args& args) {
  Setup s;
  s.sweep = load_sweep(args);
  s.jobs = ec::expand(s.sweep);
  s.order = submission_order(s.jobs.size(), args.seed);
  return s;
}

/// The queue's contents, rendered in memory: the sweep as a self-contained
/// document plus one manifest per kJobsPerTask jobs.
struct QueuePlan {
  std::vector<std::pair<std::string, std::string>> files;  ///< name, bytes
  std::size_t tasks = 0;
  double plan_ms = 0.0;  ///< plan_shards + manifest rendering (+ writes, once written)
  fs::path dir;          ///< set by write_queue
};

std::string task_name(std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "task_%03zu.json", index);
  return name;
}

QueuePlan plan_queue(const Setup& setup, std::uint64_t seed) {
  QueuePlan q;
  const std::string bytes = ec::to_json(setup.sweep).dump();
  q.files.emplace_back("sweep.json", bytes);
  const std::int64_t t0 = now_ns();
  const std::size_t tasks = (setup.jobs.size() + kJobsPerTask - 1) / kJobsPerTask;
  const auto plan = dt::plan_shards(setup.jobs, tasks, dt::ShardStrategy::Balanced);
  // Daemons claim in file-name order, so the names carry the seed.
  const std::vector<std::size_t> names = submission_order(plan.size(), seed);
  q.tasks = plan.size();
  for (std::size_t s = 0; s < plan.size(); ++s) {
    dt::ShardManifest m;
    m.sweep_name = setup.sweep.name;
    m.sweep_file = "sweep.json";
    m.sweep_hash = ec::fnv1a64(bytes);
    m.shard_index = s;
    m.shard_count = plan.size();
    m.strategy = dt::ShardStrategy::Balanced;
    m.total_jobs = setup.jobs.size();
    m.job_indices = plan[s];
    q.files.emplace_back(task_name(names[s]), dt::to_json(m).dump());
  }
  q.plan_ms = static_cast<double>(now_ns() - t0) / 1e6;
  return q;
}

/// Write the plan into `dir`, which must not exist yet.  The write time is
/// added to plan_ms but kept out of setup_s: on a 4-vCPU VM with a shared
/// disk the same 61 small files took 2 to 14 ms from one run to the next.
void write_queue(QueuePlan& plan, const fs::path& dir) {
  const std::int64_t t0 = now_ns();
  fs::create_directories(dir);
  for (const auto& [name, bytes] : plan.files) {
    if (!sc::write_file((dir / name).string(), bytes)) {
      throw std::runtime_error("cannot write queue file " + name);
    }
  }
  plan.dir = dir;
  plan.plan_ms += static_cast<double>(now_ns() - t0) / 1e6;
}

// --- passes --------------------------------------------------------------------

/// One end-to-end execution of the sweep.
struct SweepRun {
  std::vector<sc::RunResult> results;
  std::vector<double> run_ms;  ///< per-run wall
  double wall_s = 0.0;
  std::size_t failed_runs = 0;
  // queue only
  double task_overhead_ms = 0.0;
  std::uint64_t trace_hits = 0;
  std::uint64_t trace_misses = 0;
  std::uint64_t snapshot_events = 0;
  std::uint64_t snapshot_jobs = 0;
};

/// One BatchRunner sweep, jobs submitted in setup.order; results in grid order.
SweepRun run_batch(sc::BatchRunner& runner, const Setup& setup) {
  SweepRun r;
  const std::size_t n = setup.jobs.size();
  std::vector<sc::BatchJob> submitted;
  submitted.reserve(n);
  for (const std::size_t i : setup.order) submitted.push_back(setup.jobs[i]);
  r.run_ms.reserve(n);
  std::vector<sc::RunResult> results;
  const std::int64_t start = now_ns();
  try {
    results = runner.run(submitted, [&](std::size_t, const sc::RunResult&, double wall_ms) {
      r.run_ms.push_back(wall_ms);  // serialized by BatchRunner
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep failed: %s\n", e.what());
    r.failed_runs = n;
  }
  r.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  if (results.size() == n) {
    r.results.resize(n);
    for (std::size_t k = 0; k < n; ++k) r.results[setup.order[k]] = std::move(results[k]);
  }
  return r;
}

/// Drain a planned queue with kDaemons in-process daemons.  Timed from
/// the daemons' start to the merged result vector; the idle exit (STOP
/// sentinel, thread join) happens after the clock stops.  A task the
/// daemons move to failed/ leaves the merge incomplete, so every run of
/// the sweep counts as failed.
SweepRun run_queue(const QueuePlan& plan, const std::vector<sc::BatchJob>& jobs,
                   perfbench::SpanLog* log, std::int64_t parent) {
  SweepRun r;
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t finished = 0;  ///< tasks done or failed
  std::size_t exited = 0;
  std::vector<std::int64_t> last_done(kDaemons, 0);
  std::vector<std::vector<std::string>> done_by(kDaemons);
  std::map<std::string, std::int64_t> claimed_at;

  const std::int64_t start = now_ns();
  std::vector<std::thread> daemons;
  for (std::size_t w = 0; w < kDaemons; ++w) {
    daemons.emplace_back([&, w] {
      dt::DaemonOptions o;
      o.queue_dir = plan.dir.string();
      o.worker_id = "w" + std::to_string(w);
      o.threads = kDaemonThreads;
      o.poll_ms = 10;
      o.max_idle_s = 120.0;  // safety net only: the benchmark stops them with STOP
      o.on_event = [&, w](const std::string& line) {
        const std::int64_t t = now_ns();
        const auto word_end = line.find(' ');
        const std::string verb = line.substr(0, word_end);
        if (verb != "claimed" && verb != "done" && verb != "failed") return;
        std::string task = line.substr(word_end + 1);
        task = task.substr(0, task.find_first_of(" :"));
        const std::lock_guard<std::mutex> lock(mutex);
        if (verb == "claimed") {
          claimed_at[task] = t;
          return;
        }
        ++finished;
        last_done[w] = t;
        if (verb == "done") {
          done_by[w].push_back(task);
          if (log != nullptr) log->add("distrib.task", parent, claimed_at[task], t);
        }
        cv.notify_all();
      };
      try {
        static_cast<void>(dt::run_daemon(o));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "daemon %s failed: %s\n", o.worker_id.c_str(), e.what());
      }
      const std::lock_guard<std::mutex> lock(mutex);
      ++exited;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return finished >= plan.tasks || exited == kDaemons; });
  }

  std::vector<dt::JournalEntry> entries;
  std::vector<double> rows_ms_by(kDaemons, 0.0);
  try {
    for (std::size_t w = 0; w < kDaemons; ++w) {
      for (const std::string& task : done_by[w]) {
        const fs::path journal =
            plan.dir / "done" / (fs::path(task).stem().string() + ".journal.jsonl");
        for (dt::JournalEntry& e : dt::read_journal(journal.string()).entries) {
          r.run_ms.push_back(e.wall_ms);
          rows_ms_by[w] += e.wall_ms;
          entries.push_back(std::move(e));
        }
      }
    }
    r.results = dt::merge_journals(jobs, entries);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "queue merge failed: %s\n", e.what());
    r.failed_runs = jobs.size();
  }
  const std::int64_t end = now_ns();
  r.wall_s = static_cast<double>(end - start) / 1e9;
  if (log != nullptr) log->add("distrib.drain_and_merge", parent, start, end);

  if (!sc::write_file((plan.dir / "STOP").string(), "")) {
    std::fprintf(stderr, "cannot write STOP sentinel\n");
  }
  for (std::thread& t : daemons) t.join();

  double overhead_ms = 0.0;
  std::size_t tasks = 0;
  for (std::size_t w = 0; w < kDaemons; ++w) {
    if (done_by[w].empty()) continue;
    overhead_ms += static_cast<double>(last_done[w] - start) / 1e6 -
                   rows_ms_by[w] / static_cast<double>(kDaemonThreads);
    tasks += done_by[w].size();
  }
  r.task_overhead_ms = tasks > 0 ? overhead_ms / static_cast<double>(tasks) : 0.0;
  for (std::size_t w = 0; w < kDaemons; ++w) {
    try {
      const drowsy::obs::WorkerSnapshot snap = drowsy::obs::read_snapshot_file(
          (plan.dir / "metrics" / ("w" + std::to_string(w) + ".json")).string());
      r.trace_hits += snap.trace_cache_hits;
      r.trace_misses += snap.trace_cache_misses;
      r.snapshot_events += snap.profile.total_events();
      r.snapshot_jobs += snap.jobs_done;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot read worker snapshot: %s\n", e.what());
    }
  }
  return r;
}

// --- output checks ---------------------------------------------------------------

std::vector<std::string> csv_lines(const std::string& csv) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t nl = csv.find('\n', pos);
    lines.push_back(csv.substr(pos, nl - pos));
    pos = nl == std::string::npos ? csv.size() : nl + 1;
  }
  return lines;
}

/// Runs whose CSV rows differ from the reference (header excluded).
std::size_t rows_differing(const std::string& csv, const std::string& reference,
                           std::size_t runs) {
  if (csv == reference) return 0;
  const auto a = csv_lines(csv);
  const auto b = csv_lines(reference);
  std::size_t differing = 0;
  for (std::size_t i = 1; i <= runs; ++i) {
    if (i >= a.size() || i >= b.size() || a[i] != b[i]) ++differing;
  }
  return std::max<std::size_t>(differing, 1);
}

/// Runs whose results are physically implausible for their job.
std::size_t implausible_runs(const std::vector<sc::RunResult>& results,
                             const std::vector<sc::BatchJob>& jobs) {
  if (results.size() != jobs.size()) return jobs.size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const sc::RunResult& r = results[i];
    const std::int64_t hours = static_cast<std::int64_t>(jobs[i].spec.duration_days) * 24;
    const bool ok = r.scenario == jobs[i].spec.name &&
                    r.policy == sc::to_string(jobs[i].policy) &&
                    r.seed == jobs[i].resolved_seed() && r.simulated_hours == hours &&
                    std::isfinite(r.kwh) && r.kwh > 0.0 && r.sla_attainment >= 0.0 &&
                    r.sla_attainment <= 1.0 && r.wake_latency_p99_ms >= 0.0;
    if (!ok) ++bad;
  }
  return bad;
}

std::string digest(const std::string& csv) { return ec::hex64(ec::fnv1a64(csv)); }

// --- metrics -----------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The three simulated end-to-end metrics (deterministic per seed).
struct SimMetrics {
  double kwh_saving_pct = 0.0;
  double sla_attainment_min = 0.0;
  double wake_p99_ms = 0.0;
};

SimMetrics sim_metrics(const std::vector<sc::RunResult>& results) {
  double drowsy_kwh = 0.0, neat_kwh = 0.0, wake = 0.0;
  std::size_t drowsy_n = 0, neat_n = 0;
  std::map<std::string, std::pair<double, std::size_t>> sla;  // scenario -> (sum, n)
  for (const sc::RunResult& r : results) {
    if (r.policy == "drowsy-dc") {
      drowsy_kwh += r.kwh;
      wake += r.wake_latency_p99_ms;
      ++drowsy_n;
      sla[r.scenario].first += r.sla_attainment;
      ++sla[r.scenario].second;
    } else if (r.policy == "neat+s3") {
      neat_kwh += r.kwh;
      ++neat_n;
    }
  }
  SimMetrics m;
  if (drowsy_n == 0 || neat_n == 0) return m;
  const double d = drowsy_kwh / static_cast<double>(drowsy_n);
  const double n = neat_kwh / static_cast<double>(neat_n);
  m.kwh_saving_pct = 100.0 * (n - d) / n;
  m.sla_attainment_min = 1.0;
  for (const auto& [name, acc] : sla) {
    m.sla_attainment_min =
        std::min(m.sla_attainment_min, acc.first / static_cast<double>(acc.second));
  }
  m.wake_p99_ms = wake / static_cast<double>(drowsy_n);
  return m;
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool checks_ok = true;
  std::vector<Metric> metrics;
  std::string csv_digest;
  ec::Json samples = ec::Json::object();
};

void check(Outcome& o, bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "output check failed: %s\n", what);
    o.checks_ok = false;
  }
}

/// Keep sweeping while another sweep of the median length still fits.
bool time_left(std::int64_t start, const std::vector<double>& walls, double seconds) {
  const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
  return elapsed + median(walls) <= seconds;
}

/// Add kSetupSamples samples to `setup_s`, each the mean of kSetupRepeats
/// back-to-back set-ups: one set-up takes well under a millisecond, too
/// short to time steadily on its own.  Called before every sweep, so the
/// median spans the whole run rather than one instant of it.
void time_setups(const Args& args, std::vector<double>& setup_s) {
  for (std::size_t k = 0; k < kSetupSamples; ++k) {
    const std::int64_t t0 = now_ns();
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      const Setup s = load_and_expand(args);
      if (args.workload->queue) static_cast<void>(plan_queue(s, args.seed));
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9 /
                      static_cast<double>(kSetupRepeats));
  }
}

/// Check one sweep's output against `reference` (the runs CSV an earlier
/// pass produced, or "" to adopt this one) and the workload's recorded
/// digest; returns the number of runs that count as failed.
std::size_t verify(Outcome& o, const Args& args, const Setup& setup, const SweepRun& run,
                   std::string& reference) {
  const std::string csv = sc::to_csv(run.results);
  if (reference.empty()) reference = csv;
  const std::size_t n = setup.jobs.size();
  std::size_t bad = std::max({run.failed_runs, rows_differing(csv, reference, n),
                              implausible_runs(run.results, setup.jobs)});
  check(o, bad == 0, "sweep output differs from the reference run or is implausible");
  const std::string expected =
      args.reduced ? args.workload->reduced_digest : args.workload->digest;
  if (!expected.empty() && digest(csv) != expected) {
    std::fprintf(stderr, "runs CSV digest %s, expected %s\n", digest(csv).c_str(),
                 expected.c_str());
    check(o, false, "runs CSV differs from the recorded one");
    bad = n;  // a digest cannot say which rows moved
  }
  o.csv_digest = digest(reference);
  return std::min(bad, n);
}

/// Peak RSS of one sweep, run in a child process that does nothing else:
/// this process repeats sweeps and keeps a reference run, so its own
/// allocator high-water mark drifts with the number of sweeps.  Must be
/// called while the process is still single-threaded (it forks).
/// Returns MB, or -1 when the child failed.
double sweep_peak_rss_mb(const Args& args, const fs::path& scratch) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) return -1.0;
  if (pid == 0) {
    int code = 1;
    try {
      const Setup s = load_and_expand(args);
      SweepRun run;
      if (args.workload->queue) {
        QueuePlan plan = plan_queue(s, args.seed);
        write_queue(plan, scratch / "rss-probe");
        run = run_queue(plan, s.jobs, nullptr, 0);
        fs::remove_all(plan.dir);
      } else {
        sc::BatchRunner runner(kThreads);
        run = run_batch(runner, s);
      }
      code = run.failed_runs == 0 && run.results.size() == s.jobs.size() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "peak RSS probe failed: %s\n", e.what());
    }
    std::fflush(stderr);
    _exit(code);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

Outcome untraced(const Args& args, const fs::path& scratch) {
  Outcome o;
  const double rss_mb = sweep_peak_rss_mb(args, scratch);
  check(o, rss_mb > 0.0, "the peak RSS sweep failed");
  std::vector<double> setup_s;
  const Setup setup = load_and_expand(args);
  sc::BatchRunner runner(kThreads);

  std::string reference;
  if (args.workload->queue) {
    // The in-process run the merged queue output must reproduce; outside
    // the timed region and not counted as attempted.
    reference = sc::to_csv(run_batch(runner, setup).results);
  }

  // Per-run percentiles are taken within each sweep and then the median
  // across sweeps, like the sweep wall: a burst of load from outside that
  // slows one sweep then moves none of them.
  std::vector<double> walls;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::size_t beyond_p90 = SIZE_MAX;
  std::vector<sc::RunResult> first;
  const std::int64_t start = now_ns();
  std::size_t sweeps = 0;
  do {
    time_setups(args, setup_s);
    SweepRun run;
    if (args.workload->queue) {
      const Setup s = load_and_expand(args);
      QueuePlan plan = plan_queue(s, args.seed);
      write_queue(plan, scratch / ("queue-" + std::to_string(sweeps)));
      run = run_queue(plan, s.jobs, nullptr, 0);
      fs::remove_all(plan.dir);
    } else {
      run = run_batch(runner, setup);
    }
    o.attempted += setup.jobs.size();
    o.failed += verify(o, args, setup, run, reference);
    if (first.empty()) first = run.results;
    walls.push_back(run.wall_s);
    p50s.push_back(median(run.run_ms));
    p90s.push_back(percentile(run.run_ms, 0.90));
    beyond_p90 = std::min<std::size_t>(
        beyond_p90, static_cast<std::size_t>(std::count_if(
                        run.run_ms.begin(), run.run_ms.end(),
                        [p90 = p90s.back()](double v) { return v > p90; })));
    ++sweeps;
  } while (time_left(start, walls, args.seconds));

  const SimMetrics sim = sim_metrics(first);
  check(o, sim.kwh_saving_pct != 0.0 && sim.sla_attainment_min > 0.0 && sim.wake_p99_ms > 0.0,
        "simulated metrics are degenerate");
  o.metrics = {
      {"sweep_wall_s", "s", median(walls)},
      {"run_ms_p50", "ms", median(p50s)},
      {"run_ms_p90", "ms", median(p90s)},
      {"setup_s", "s", median(setup_s)},
      {"peak_rss_mb", "MB", rss_mb},
      {"kwh_saving_pct", "%", sim.kwh_saving_pct},
      {"sla_attainment_min", "ratio", sim.sla_attainment_min},
      {"wake_p99_ms", "sim_ms", sim.wake_p99_ms},
  };
  o.samples.set("sweeps", static_cast<std::uint64_t>(sweeps));
  ec::Json wall_samples = ec::Json::array();
  for (const double w : walls) wall_samples.push_back(w);
  o.samples.set("sweep_walls_s", std::move(wall_samples));
  o.samples.set("runs_per_sweep", static_cast<std::uint64_t>(setup.jobs.size()));
  o.samples.set("run_ms_beyond_p90_min", static_cast<std::uint64_t>(beyond_p90));
  o.samples.set("setup_samples", static_cast<std::uint64_t>(setup_s.size()));
  return o;
}

// --- traced pass -----------------------------------------------------------------

/// Per-layer metric values of one traced repetition, in report order.
/// `deterministic` ones must repeat exactly across repetitions and runs.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value;
  bool deterministic;
};

/// `untraced` is the in-process BatchRunner sweep of the same repetition;
/// `queue` the daemons' sweep (queue workload only, else null).
std::vector<LayerMetric> layer_metrics(const perfbench::TracedSweep& t, const SweepRun& untraced,
                                       const SweepRun* queue, double expand_ms,
                                       double plan_ms, std::size_t tasks) {
  const perfbench::LayerCounters& c = t.counters;
  const SweepRun& e2e = queue != nullptr ? *queue : untraced;  // the end-to-end path
  const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<LayerMetric> m;
  m.push_back({"sim.events", "count", u(c.events), true});
  for (const drowsy::obs::EventTag tag : drowsy::obs::all_event_tags()) {
    m.push_back({std::string("sim.events.") + drowsy::obs::to_string(tag), "count",
                 u(c.profile.events(tag)), true});
  }
  for (const drowsy::obs::EventTag tag : drowsy::obs::all_event_tags()) {
    m.push_back({std::string("sim.dispatch_ms.") + drowsy::obs::to_string(tag), "ms",
                 ms(static_cast<std::int64_t>(c.profile.dispatch_ns(tag))), false});
  }
  m.push_back({"sim.ns_per_event", "ns",
               c.events > 0 ? static_cast<double>(c.run_hours_ns) / u(c.events) : 0.0, false});
  m.push_back({"sim.far_refills", "count", u(c.core.far_refills), true});
  m.push_back({"sim.far_events", "count", u(c.core.far_events), true});
  m.push_back({"sim.cascades", "count", u(c.core.cascades), true});
  m.push_back({"sim.batches", "count", u(c.core.batches), true});
  m.push_back({"sim.slab_slots", "count", u(c.core.slab_slots), true});

  m.push_back({"core.pretrain_ms", "ms", ms(c.pretrain_ns), false});
  m.push_back({"core.pretrain_ns_per_vm_hour", "ns",
               c.vm_hours_pretrained > 0
                   ? static_cast<double>(c.pretrain_ns) / u(c.vm_hours_pretrained)
                   : 0.0,
               false});
  m.push_back({"core.run_hours_ms", "ms", ms(c.run_hours_ns), false});
  m.push_back({"core.controller_ms", "ms",
               ms(c.run_hours_ns - static_cast<std::int64_t>(c.profile.total_dispatch_ns())),
               false});
  m.push_back({"core.suspend_checks", "count", u(c.suspend.checks), true});
  m.push_back({"core.suspends", "count", u(c.suspend.suspends), true});
  m.push_back({"core.blocked_by_grace", "count", u(c.suspend.blocked_by_grace), true});
  m.push_back({"core.blocked_by_running", "count", u(c.suspend.blocked_by_running), true});
  m.push_back({"core.blocked_by_io", "count", u(c.suspend.blocked_by_io), true});
  m.push_back({"core.blocked_by_sessions", "count", u(c.suspend.blocked_by_sessions), true});
  m.push_back({"core.blocked_by_imminent_timer", "count",
               u(c.suspend.blocked_by_imminent_timer), true});
  m.push_back({"core.wol_packet_wakes", "count", u(c.waking.packet_wakes), true});
  m.push_back({"core.wol_scheduled_wakes", "count", u(c.waking.scheduled_wakes), true});

  m.push_back({"scenario.build_ms", "ms", ms(c.build_ns), false});
  m.push_back({"scenario.harvest_ms", "ms", ms(c.harvest_ns), false});
  m.push_back({"scenario.teardown_ms", "ms", ms(c.teardown_ns), false});
  // The queue's daemons give every task a fresh TraceCache; their
  // snapshots carry the counts that workload actually pays.
  m.push_back({"trace.cache_misses", "count", u(queue ? queue->trace_misses : t.trace_misses),
               true});
  m.push_back({"trace.cache_hits", "count", u(queue ? queue->trace_hits : t.trace_hits), true});
  double busy_ms = 0.0;
  for (const double v : e2e.run_ms) busy_ms += v;
  m.push_back({"batch.pool_busy_frac", "ratio",
               busy_ms / (1e3 * static_cast<double>(kThreads) * e2e.wall_s), false});

  double wol = 0.0, delay = 0.0, unreachable = 0.0;
  for (const sc::RunResult& r : t.results) {
    wol += u(r.wol_frames);
    delay += r.switch_queue_delay_p99_ms;
    unreachable += r.host_unreachable_s;
  }
  m.push_back({"netsim.wol_frames", "count", wol, true});
  m.push_back({"netsim.switch_queue_delay_p99_ms", "sim_ms",
               t.results.empty() ? 0.0 : delay / static_cast<double>(t.results.size()), true});
  m.push_back({"netsim.host_unreachable_s", "sim_s", unreachable, true});

  m.push_back({"distrib.plan_ms", "ms", plan_ms, false});
  m.push_back({"distrib.journal_append_us", "us",
               c.runs > 0 ? static_cast<double>(c.append_ns) / 1e3 / u(c.runs) : 0.0, false});
  m.push_back({"distrib.merge_ms", "ms", ms(t.merge_ns), false});
  m.push_back({"distrib.tasks", "count", static_cast<double>(tasks), true});
  m.push_back({"distrib.task_overhead_ms", "ms", queue ? queue->task_overhead_ms : 0.0, false});

  m.push_back({"obs.profile_overhead_frac", "ratio",
               static_cast<double>(t.wall_ns) / 1e9 / untraced.wall_s - 1.0, false});
  m.push_back({"expctl.expand_ms", "ms", expand_ms, false});
  m.push_back({"expctl.emit_ms", "ms", ms(t.emit_ns), false});
  return m;
}

Outcome traced(const Args& args, const fs::path& scratch, const std::string& spans_path) {
  Outcome o;
  perfbench::SpanLog log;
  sc::BatchRunner runner(kThreads);
  std::vector<std::vector<LayerMetric>> reps;
  std::vector<double> walls;
  std::string reference;
  const std::int64_t start = now_ns();
  do {
    const std::size_t rep = reps.size();
    const std::int64_t rep_id = log.next_id();
    const std::int64_t rep_start = now_ns();

    // Untraced side: the end-to-end path (daemons for queue) and an
    // in-process BatchRunner sweep, the base of the profile overhead.
    const Setup setup = load_and_expand(args);
    SweepRun queue_run;
    double plan_ms = 0.0;
    std::size_t tasks = 0;
    if (args.workload->queue) {
      const std::int64_t q_id = log.next_id();
      const std::int64_t q0 = now_ns();
      QueuePlan plan = plan_queue(setup, args.seed);
      write_queue(plan, scratch / ("queue-" + std::to_string(rep)));
      plan_ms = plan.plan_ms;
      tasks = plan.tasks;
      queue_run = run_queue(plan, setup.jobs, &log, q_id);
      fs::remove_all(plan.dir);
      log.add("sweep.queue", q_id, rep_id, q0, now_ns());
    }
    const std::int64_t u0 = now_ns();
    const SweepRun untraced_run = run_batch(runner, setup);
    log.add("sweep.untraced", rep_id, u0, now_ns());

    // Traced side.
    const std::int64_t t_id = log.next_id();
    const std::int64_t t0 = now_ns();
    const ec::SweepSpec sweep = load_sweep(args);
    const std::int64_t t1 = now_ns();
    const std::vector<sc::BatchJob> jobs = ec::expand(sweep);
    const std::int64_t t2 = now_ns();
    log.add("expctl.load", t_id, t0, t1);
    log.add("expctl.expand", t_id, t1, t2);
    const perfbench::TracedSweep t = perfbench::run_traced(
        jobs, setup.order, kThreads, (scratch / "traced.journal.jsonl").string(), log, t_id);
    log.add("sweep.traced", t_id, rep_id, t0, now_ns());
    log.add("repetition", rep_id, 0, rep_start, now_ns());

    const std::size_t n = setup.jobs.size();
    std::size_t bad = verify(o, args, setup, untraced_run, reference);
    const std::string csv = sc::to_csv(untraced_run.results);
    const std::size_t t_bad =
        std::max({t.failed_runs, rows_differing(sc::to_csv(t.results), csv, n),
                  rows_differing(t.emitted_csv, csv, n)});
    check(o, t_bad == 0, "traced pass does not reproduce the untraced pass");
    bad = std::max(bad, t_bad);
    if (args.workload->queue) {
      const std::size_t q_bad = std::max(queue_run.failed_runs,
                                         rows_differing(sc::to_csv(queue_run.results), csv, n));
      check(o, q_bad == 0, "merged queue output differs from the in-process run");
      check(o, queue_run.snapshot_events == t.counters.events,
            "daemon snapshot event count differs from the traced pass");
      check(o, queue_run.snapshot_jobs == n, "daemon snapshots miss finished runs");
      bad = std::max(bad, q_bad);
    }
    check(o, t.counters.profile.total_events() == t.counters.events,
          "event profile does not account for every executed event");
    o.attempted += n;
    o.failed += std::min(bad, n);
    reps.push_back(layer_metrics(t, untraced_run, args.workload->queue ? &queue_run : nullptr,
                                 static_cast<double>(t2 - t1) / 1e6, plan_ms, tasks));
    if (rep > 0) {
      for (std::size_t i = 0; i < reps[0].size(); ++i) {
        if (reps[0][i].deterministic && reps[rep][i].value != reps[0][i].value) {
          std::fprintf(stderr, "%s changed between repetitions\n", reps[0][i].name.c_str());
          o.checks_ok = false;
        }
      }
    }
    walls.push_back(static_cast<double>(now_ns() - rep_start) / 1e9);
  } while (time_left(start, walls, args.seconds));

  for (std::size_t i = 0; i < reps[0].size(); ++i) {
    std::vector<double> values;
    for (const auto& r : reps) values.push_back(r[i].value);
    o.metrics.push_back({reps[0][i].name, reps[0][i].unit,
                         reps[0][i].deterministic ? reps[0][i].value : median(values)});
  }
  o.samples.set("repetitions", static_cast<std::uint64_t>(reps.size()));
  o.samples.set("runs_per_sweep", static_cast<std::uint64_t>(o.attempted / reps.size()));
  log.write_chrome_trace(spans_path);
  std::printf("spans: %s\n", spans_path.c_str());
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Replay columns (traces/...) resolve from the repository root whatever
  // the working directory.
  setenv("DROWSY_TRACE_ROOT", args.root.c_str(), 1);

  const fs::path scratch =
      fs::path(args.work_dir) / (std::string(args.workload->name) + "-" +
                                 std::to_string(static_cast<long>(getpid())));
  fs::create_directories(scratch);
  const std::string tag = std::string(args.workload->name) + "-seed" +
                          std::to_string(args.seed) + (args.trace ? "-traced" : "");
  const std::string spans =
      args.spans.empty() ? (fs::path(args.work_dir) / "spans" / (tag + ".trace.json")).string()
                         : args.spans;
  if (args.trace) fs::create_directories(fs::path(spans).parent_path());

  const ec::Json config = build_config();
  std::printf("workload %s, seed %llu, %g s, %s pass\nconfig %s\n", args.workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? "traced" : "untraced", config.dump(0).c_str());

  Outcome o;
  try {
    o = args.trace ? traced(args, scratch, spans) : untraced(args, scratch);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    fs::remove_all(scratch);
    return 1;
  }
  fs::remove_all(scratch);

  const bool correct = o.checks_ok && o.failed == 0;
  std::printf("runs CSV digest %s\n", o.csv_digest.c_str());
  std::printf("samples %s\n", o.samples.dump(0).c_str());
  std::printf("runs_failed_frac %.6f ratio (%zu of %zu runs)\n",
              o.attempted > 0 ? static_cast<double>(o.failed) / static_cast<double>(o.attempted)
                              : 1.0,
              o.failed, o.attempted);
  ec::Json metrics = ec::Json::object();
  for (const Metric& m : o.metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    ec::Json v = ec::Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }

  ec::Json result = ec::Json::object();
  result.set("config", config);
  result.set("workload", args.workload->name);
  result.set("seed", args.seed);
  result.set("trace", args.trace);
  result.set("csv_digest", o.csv_digest);
  result.set("samples", o.samples);
  result.set("correct", correct);
  result.set("attempted", static_cast<std::uint64_t>(o.attempted));
  result.set("failed", static_cast<std::uint64_t>(o.failed));
  result.set("metrics", metrics);
  const fs::path results_dir = fs::path(args.work_dir) / "results";
  fs::create_directories(results_dir);
  if (!sc::write_file((results_dir / (tag + ".json")).string(), result.dump())) return 1;

  ec::Json line = ec::Json::object();
  line.set("correct", correct);
  line.set("attempted", static_cast<std::uint64_t>(o.attempted));
  line.set("failed", static_cast<std::uint64_t>(o.failed));
  line.set("metrics", std::move(metrics));
  std::printf("%s\n", line.dump(0).c_str());
  return correct ? 0 : 1;
}

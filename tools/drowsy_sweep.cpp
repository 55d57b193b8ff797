// drowsy_sweep — drive the scenario catalogue from JSON sweep files: run
// a sweep in one process, shard it across machines (plan, run, merge,
// status, the queue daemon and its reaper), and reproduce the paper's
// figures as studies.  `drowsy_sweep --help` prints every subcommand with
// its flags, generated from the tables in commands() below; the full
// reference (flags, file formats, exit codes) is docs/drowsy_sweep.md.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hpp"

#include "distrib/cost_model.hpp"
#include "distrib/daemon.hpp"
#include "distrib/fault.hpp"
#include "distrib/merge.hpp"
#include "distrib/reaper.hpp"
#include "distrib/shard.hpp"
#include "distrib/shard_runner.hpp"
#include "expctl/report.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"
#include "obs/snapshot.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/probes.hpp"
#include "scenario/registry.hpp"
#include "study/study.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace cli = drowsy::cli;
namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;
namespace st = drowsy::study;

namespace {

int cmd_list() {
  for (const sc::ScenarioSpec& spec : sc::ScenarioRegistry::builtin().all()) {
    std::printf("%-22s %s\n", spec.name.c_str(), spec.description.c_str());
  }
  return 0;
}

int cmd_dump(const std::vector<std::string>& names) {
  const auto& registry = sc::ScenarioRegistry::builtin();
  ec::Json out = ec::Json::array();
  if (names.empty()) {
    for (const sc::ScenarioSpec& spec : registry.all()) out.push_back(ec::to_json(spec));
  } else {
    for (const std::string& name : names) {
      const sc::ScenarioSpec* spec = registry.find(name);
      if (spec == nullptr) {
        std::fprintf(stderr, "no such scenario: %s (try 'drowsy_sweep list')\n",
                     name.c_str());
        return 1;
      }
      out.push_back(ec::to_json(*spec));
    }
  }
  // A single requested scenario prints as a bare object, ready to paste
  // into a sweep file's "scenarios" array.
  const std::string text = names.size() == 1 ? out.at(std::size_t{0}).dump() : out.dump();
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}

int cmd_validate(const std::string& path) {
  const ec::LoadedSweep loaded = ec::load_sweep(path);
  const auto jobs = ec::expand(loaded.sweep);
  std::printf("%s: OK — %zu scenario(s) x %zu policy(ies) -> %zu runs\n",
              loaded.sweep.name.c_str(), loaded.sweep.scenarios.size(),
              loaded.sweep.policies.size(), jobs.size());
  return 0;
}

/// Artifact destinations shared by `run` and `shard merge` — one emission
/// path, so sharded output is byte-identical by construction.
struct EmitOptions {
  double alpha = 0.05;
  std::string stats_csv;
  std::string runs_csv;
  std::string stats_json;
  std::string verdicts_csv;
};

/// Print the report tables and write the requested artifacts.
bool emit_results(const std::vector<sc::RunResult>& results, const EmitOptions& opts) {
  const auto rows = ec::summarize(results);
  const auto verdicts = ec::compare_policies(results, opts.alpha);
  std::printf("%s\n", ec::stats_table(rows).c_str());
  std::printf("%s", ec::comparison_table(verdicts).c_str());

  bool ok = true;
  if (!opts.stats_csv.empty()) ok &= sc::write_file(opts.stats_csv, ec::to_csv(rows));
  if (!opts.runs_csv.empty()) ok &= sc::write_file(opts.runs_csv, sc::to_csv(results));
  if (!opts.stats_json.empty()) ok &= sc::write_file(opts.stats_json, ec::to_json(rows));
  if (!opts.verdicts_csv.empty()) {
    ok &= sc::write_file(opts.verdicts_csv, ec::to_csv(verdicts));
  }
  return ok;
}

/// Every subcommand's settings.  Each command's flag table (commands()
/// below) writes only the fields that command reads.
struct Options {
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  EmitOptions emit;
  std::string trace_out;     ///< directory for per-run Perfetto timelines
  std::string metrics_json;  ///< worker metrics snapshot, flushed per run
  std::size_t shards = 0;
  std::string out_dir = ".";
  std::vector<std::string> costs;
  std::vector<std::string> journals;
  std::string queue_dir;     ///< status: scan claimed/ for leases
  bool json_report = false;  ///< status: one JSON document on stdout
  dt::DaemonOptions daemon;
  dt::ReapOptions reap;
  std::vector<std::string> sets;  ///< study --set tokens, applied once the study is known
  std::string out;                ///< study figure CSV or sweep JSON
};

// --- run ----------------------------------------------------------------------

int cmd_run(const Options& opts, const std::string& sweep_path) {
  const ec::LoadedSweep loaded = ec::load_sweep(sweep_path);
  const auto jobs = ec::expand(loaded.sweep);

  sc::BatchRunner runner(opts.threads);
  std::printf("== %s: %zu runs (%zu threads) ==\n\n", loaded.sweep.name.c_str(),
              jobs.size(), runner.thread_count());

  // Observability side-channels.  Timelines are deterministic (sim-time
  // stamped); the metrics snapshot is wall-clock and advisory, flushed
  // after every finished run so a dashboard can watch a long sweep.
  std::vector<sc::RunProbe> probes;
  if (!opts.trace_out.empty()) probes.push_back(sc::timeline_probe(opts.trace_out));
  drowsy::obs::WorkerSnapshot snap;
  std::mutex snap_mutex;
  snap.worker_id = "drowsy_sweep-run";
  const auto flush_metrics_locked = [&]() {
    snap.updated_unix_ms = drowsy::obs::wall_clock_unix_ms();
    drowsy::obs::write_snapshot_file(opts.metrics_json, snap);
  };
  sc::BatchRunner::CompletionCallback on_complete;
  if (!opts.metrics_json.empty()) {
    probes.push_back(sc::profile_probe([&](const drowsy::obs::EventProfile& p) {
      const std::lock_guard<std::mutex> lock(snap_mutex);
      snap.profile.merge(p);
    }));
    on_complete = [&](std::size_t, const sc::RunResult&, double) {
      const std::lock_guard<std::mutex> lock(snap_mutex);
      ++snap.jobs_done;
      flush_metrics_locked();
    };
  }
  const sc::RunProbe probe =
      probes.empty() ? sc::RunProbe{} : sc::combine_probes(std::move(probes));

  const auto results = runner.run(jobs, on_complete, probe);

  const bool ok = emit_results(results, opts.emit);
  std::printf("\ntraces materialized: %llu (reused %llu times)\n",
              static_cast<unsigned long long>(runner.last_trace_misses()),
              static_cast<unsigned long long>(runner.last_trace_hits()));
  if (!opts.trace_out.empty()) {
    std::printf("run timelines: %zu file(s) in %s\n", jobs.size(),
                opts.trace_out.c_str());
  }
  if (!opts.metrics_json.empty()) {
    const std::lock_guard<std::mutex> lock(snap_mutex);
    snap.trace_cache_hits = runner.last_trace_hits();
    snap.trace_cache_misses = runner.last_trace_misses();
    flush_metrics_locked();
  }
  return ok ? 0 : 1;
}

// --- shard subcommands --------------------------------------------------------

int cmd_shard_plan(const Options& opts, const std::string& sweep_path) {
  const ec::LoadedSweep loaded = ec::load_sweep(sweep_path);
  const auto jobs = ec::expand(loaded.sweep);

  // Static heuristic costs are always computed: without --costs they
  // drive the plan; with --costs they anchor the predicted-vs-measured
  // balance report.
  std::vector<double> static_costs(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    static_costs[i] = dt::estimate_job_cost(jobs[i]);
  }

  dt::CostModel::JobCosts priced;
  const bool use_measured = !opts.costs.empty();
  if (use_measured) {
    dt::CostModel model;
    for (const std::string& path : opts.costs) {
      model.add_journal(dt::read_journal(path).entries);
    }
    priced = model.price(jobs);
    std::printf("cost model: %zu journal(s) -> %zu exact, %zu scenario-level,"
                " %zu heuristic job price(s)\n",
                opts.costs.size(), priced.measured, priced.scenario, priced.heuristic);
  }
  const std::vector<double>& plan_costs = use_measured ? priced.cost : static_costs;
  const auto plan = dt::plan_shards(jobs, opts.shards, dt::ShardStrategy::Balanced, plan_costs);

  if (mkdir(opts.out_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", opts.out_dir.c_str());
    return 1;
  }

  std::printf("== %s: %zu jobs -> %zu shard(s), %s ==\n", loaded.sweep.name.c_str(),
              jobs.size(), opts.shards, dt::to_string(dt::ShardStrategy::Balanced));
  bool ok = true;
  const std::vector<double> planned_totals = dt::shard_costs(plan, plan_costs);
  const std::vector<double> static_totals = dt::shard_costs(plan, static_costs);
  for (std::size_t s = 0; s < plan.size(); ++s) {
    dt::ShardManifest manifest;
    manifest.sweep_name = loaded.sweep.name;
    manifest.sweep_file = sweep_path;
    manifest.sweep_hash = drowsy::util::fnv1a64(loaded.bytes);
    manifest.shard_index = s;
    manifest.shard_count = opts.shards;
    manifest.total_jobs = jobs.size();
    manifest.job_indices = plan[s];

    const std::string path = opts.out_dir + "/shard_" + std::to_string(s) + ".json";
    ok &= sc::write_file(path, dt::to_json(manifest).dump());
    if (use_measured) {
      std::printf("  %-28s %4zu job(s)  est. %10.0f ms  (static %10.0f)\n", path.c_str(),
                  plan[s].size(), planned_totals[s], static_totals[s]);
    } else {
      std::printf("  %-28s %4zu job(s)  est. cost %10.0f\n", path.c_str(), plan[s].size(),
                  planned_totals[s]);
    }
  }
  if (use_measured) {
    // Would the old plan have balanced as well?  Evaluate both layouts
    // under the measured model: the static-heuristic plan re-priced with
    // measured costs is what the fleet would actually have experienced.
    const auto static_plan =
        dt::plan_shards(jobs, opts.shards, dt::ShardStrategy::Balanced, static_costs);
    std::printf("predicted balance (max/min shard cost, measured model):\n"
                "  measured-cost plan    %.3f\n"
                "  static-heuristic plan %.3f\n",
                dt::cost_spread(planned_totals),
                dt::cost_spread(dt::shard_costs(static_plan, priced.cost)));
  }
  return ok ? 0 : 1;
}

int cmd_shard_run(const Options& opts, const std::string& manifest_path) {
  // The same load as the queue daemon's, with the manifest's own
  // directory standing in for the queue root.
  const dt::ShardTask task = dt::load_shard_task(
      manifest_path, std::filesystem::path(manifest_path).parent_path().string());
  const dt::ShardManifest& manifest = task.manifest;
  const std::string journal_path = dt::journal_path_for(manifest_path);

  std::printf("== %s shard %zu/%zu: %zu job(s), journal %s ==\n",
              manifest.sweep_name.c_str(), manifest.shard_index, manifest.shard_count,
              manifest.job_indices.size(), journal_path.c_str());
  const dt::ShardRunOutcome outcome =
      dt::run_shard(task.grid, manifest, journal_path, opts.threads);
  std::printf("resumed %zu, executed %zu (traces materialized %llu, reused %llu)\n",
              outcome.resumed, outcome.executed,
              static_cast<unsigned long long>(outcome.trace_misses),
              static_cast<unsigned long long>(outcome.trace_hits));
  return 0;
}

/// Read and concatenate journals; `per_journal` (optional) observes each
/// one as it is read — the hook `shard status` prints its per-journal
/// wall totals from.
std::vector<dt::JournalEntry> read_journal_set(
    const std::vector<std::string>& paths,
    const std::function<void(const std::string&, const dt::JournalContents&)>&
        per_journal = {}) {
  std::vector<dt::JournalEntry> entries;
  for (const std::string& path : paths) {
    const dt::JournalContents contents = dt::read_journal(path);
    if (contents.truncated_tail) {
      DROWSY_LOG_WARN("sweep", "%s has a torn final row (crashed shard?); ignored",
                      path.c_str());
    }
    if (per_journal) per_journal(path, contents);
    entries.insert(entries.end(), contents.entries.begin(), contents.entries.end());
  }
  return entries;
}

int cmd_shard_merge(const Options& opts, const std::string& sweep_path) {
  const ec::LoadedSweep loaded = ec::load_sweep(sweep_path);
  const auto jobs = ec::expand(loaded.sweep);
  const auto entries = read_journal_set(opts.journals);
  const auto results = dt::merge_journals(jobs, entries);
  std::printf("== %s: merged %zu run(s) from %zu journal(s) ==\n\n",
              loaded.sweep.name.c_str(), results.size(), opts.journals.size());
  return emit_results(results, opts.emit) ? 0 : 1;
}

/// The text form of `shard status`, rendered from its JSON document.
void print_shard_status(const ec::Json& j) {
  for (const ec::Json& t : j.at("journals").elements()) {
    std::printf("  %-40s %4llu row(s)  wall %10.0f ms\n", t.at("path").as_string().c_str(),
                static_cast<unsigned long long>(t.at("rows").as_uint()),
                t.at("wall_ms").as_double());
  }
  std::printf("%s: %llu/%llu run(s) complete\n", j.at("sweep").as_string().c_str(),
              static_cast<unsigned long long>(j.at("completed").as_uint()),
              static_cast<unsigned long long>(j.at("total").as_uint()));
  for (const char* key : {"missing", "duplicates"}) {
    if (const std::uint64_t n = j.at(key).as_uint(); n > 0) {
      std::printf("  %s: %llu\n", key, static_cast<unsigned long long>(n));
    }
  }
  const ec::Json& foreign = j.at("foreign");
  if (foreign.size() > 0) {
    std::printf("  foreign rows: %zu (e.g. %s)\n", foreign.size(),
                foreign.elements().front().as_string().c_str());
  }
  for (const ec::Json& w : j.at("workers").elements()) {
    std::printf("  worker %-20s %llu job(s), %llu task(s) done, %llu failed, "
                "%llu events profiled\n",
                w.at("worker_id").as_string().c_str(),
                static_cast<unsigned long long>(w.at("jobs_done").as_uint()),
                static_cast<unsigned long long>(w.at("tasks_done").as_uint()),
                static_cast<unsigned long long>(w.at("tasks_failed").as_uint()),
                static_cast<unsigned long long>(
                    w.at("event_profile").at("total_events").as_uint()));
  }
  for (const ec::Json& claim : j.at("claims").elements()) {
    const std::string& manifest = claim.at("manifest").as_string();
    const std::string& worker = claim.at("worker_id").as_string();
    const double remaining_s = claim.at("lease_remaining_s").as_double();
    if (!claim.at("expired").as_bool()) {
      std::printf("  claim %s (worker %s): lease %.0f s remaining\n", manifest.c_str(),
                  worker.c_str(), remaining_s);
      continue;
    }
    char why[64] = "no lease";
    if (claim.at("has_lease").as_bool()) {
      std::snprintf(why, sizeof(why), "lease expired %.0f s ago", -remaining_s);
    }
    std::printf("  warning: expired claim %s (worker %s, %s) — run `shard reap`, "
                "or restart a daemon with --worker-id %s\n",
                manifest.c_str(), worker.c_str(), why, worker.c_str());
  }
  if (const std::uint64_t reaps = j.at("reap_count").as_uint(); reaps > 0) {
    std::printf("  reaped claims: %llu\n", static_cast<unsigned long long>(reaps));
  }
}

int cmd_shard_status(const Options& opts, const std::string& sweep_path) {
  const ec::LoadedSweep loaded = ec::load_sweep(sweep_path);
  const auto jobs = ec::expand(loaded.sweep);
  // Per-journal accounting: progress in wall-clock terms, not just row
  // counts — a shard with 3 of 4 rows done may still own most of the
  // remaining work.
  ec::Json journals = ec::Json::array();
  const auto entries = read_journal_set(
      opts.journals,
      [&](const std::string& path, const dt::JournalContents& contents) {
        double wall_ms = 0.0;
        for (const dt::JournalEntry& entry : contents.entries) wall_ms += entry.wall_ms;
        ec::Json row = ec::Json::object();
        row.set("path", path);
        row.set("rows", static_cast<std::uint64_t>(contents.entries.size()));
        row.set("wall_ms", wall_ms);
        journals.push_back(std::move(row));
      });
  const dt::Coverage cov = dt::cover_grid(jobs, entries);
  // Every claim in flight with its lease: expired ones park their shard
  // until a reaper runs, healthy ones show the fleet's lease headroom.
  std::vector<dt::ClaimInfo> claims;
  // The reap history: how many times this queue recovered a dead
  // worker's claim (reaped/reap.journal.jsonl).
  std::vector<dt::ReapRecord> reaps;
  // The fleet view: every worker's metrics snapshot under
  // <queue>/metrics/, in worker-id order.  Unreadable or torn files are
  // skipped with a warning — status must report the fleet, not die on
  // one worker's bad flush.
  std::vector<drowsy::obs::WorkerSnapshot> workers;
  if (!opts.queue_dir.empty()) {
    claims = dt::list_claims(opts.queue_dir);
    try {
      reaps = dt::read_reap_journal(opts.queue_dir);
    } catch (const std::exception& e) {
      DROWSY_LOG_WARN("sweep", "cannot read reap journal: %s", e.what());
    }
    const std::filesystem::path mdir = std::filesystem::path(opts.queue_dir) / "metrics";
    std::error_code ec_dir;
    if (std::filesystem::is_directory(mdir, ec_dir)) {
      std::vector<std::string> paths;
      for (const auto& entry : std::filesystem::directory_iterator(mdir)) {
        if (entry.is_regular_file() && entry.path().extension() == ".json") {
          paths.push_back(entry.path().string());
        }
      }
      std::sort(paths.begin(), paths.end());
      for (const std::string& path : paths) {
        try {
          workers.push_back(drowsy::obs::read_snapshot_file(path));
        } catch (const std::exception& e) {
          DROWSY_LOG_WARN("sweep", "skipping unreadable worker snapshot %s: %s",
                          path.c_str(), e.what());
        }
      }
    }
  }
  // One document for both outputs: --json prints it, the text report is
  // rendered from it.  The exit code carries the complete/incomplete
  // verdict so scripts need not parse to gate.
  ec::Json j = ec::Json::object();
  j.set("sweep", loaded.sweep.name);
  j.set("completed", static_cast<std::uint64_t>(cov.completed));
  j.set("total", static_cast<std::uint64_t>(cov.total));
  j.set("complete", cov.complete());
  j.set("missing", static_cast<std::uint64_t>(cov.missing.size()));
  j.set("duplicates", static_cast<std::uint64_t>(cov.duplicates.size()));
  ec::Json foreign = ec::Json::array();
  for (const std::string& f : cov.foreign) foreign.push_back(f);
  j.set("foreign", std::move(foreign));
  j.set("journals", std::move(journals));
  // The lease fields are always present (zeroed without a lease) so
  // consumers can grep/parse a stable schema.
  ec::Json all_claims = ec::Json::array();
  for (const dt::ClaimInfo& claim : claims) {
    ec::Json row = ec::Json::object();
    row.set("manifest", claim.manifest_path);
    row.set("worker_id", claim.worker_id);
    row.set("has_lease", claim.has_lease);
    row.set("age_s", claim.age_s);
    row.set("lease_ttl_s", claim.lease_ttl_s);
    row.set("lease_remaining_s", claim.lease_remaining_s());
    row.set("expired", claim.expired());
    row.set("queue_dir", opts.queue_dir);
    all_claims.push_back(std::move(row));
  }
  j.set("claims", std::move(all_claims));
  j.set("reap_count", static_cast<std::uint64_t>(reaps.size()));
  ec::Json fleet = ec::Json::array();
  for (const drowsy::obs::WorkerSnapshot& w : workers) {
    fleet.push_back(drowsy::obs::to_json(w));
  }
  j.set("workers", std::move(fleet));
  if (opts.json_report) {
    std::printf("%s\n", j.dump(2).c_str());
  } else {
    print_shard_status(j);
  }
  return cov.complete() ? 0 : 3;  // distinct from hard errors (1) and usage (2)
}

/// "<hostname>-<pid>": the default daemon worker id and reaper id.  The
/// claiming protocol needs ids unique per live process; a bare pid
/// collides across machines and containers sharing one queue.
std::string host_pid() {
  char host[256] = "host";
  static_cast<void>(gethostname(host, sizeof(host) - 1));
  return std::string(host) + "-" + std::to_string(static_cast<long>(getpid()));
}

int cmd_shard_daemon(const Options& options, const std::string& queue_dir) {
  dt::DaemonOptions opts = options.daemon;
  opts.queue_dir = queue_dir;
  // Daemons run unattended; their util::log diagnostics (snapshot write
  // failures, torn journals) must reach the operator's log, timestamped.
  drowsy::util::set_log_level(drowsy::util::LogLevel::Info);

  std::printf("== daemon %s serving %s (poll %u ms, max idle %.1f s) ==\n",
              opts.worker_id.c_str(), opts.queue_dir.c_str(), opts.poll_ms,
              opts.max_idle_s);
  opts.on_event = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);  // daemons run backgrounded; lines must not sit in a buffer
  };
  const dt::DaemonOutcome outcome = dt::run_daemon(opts);
  std::printf("daemon %s: %zu task(s) done, %zu failed, %zu reaped (%s)\n",
              opts.worker_id.c_str(), outcome.completed, outcome.failed, outcome.reaped,
              outcome.exit == dt::DaemonExit::Stopped ? "stopped" : "idle");
  return outcome.failed == 0 ? 0 : 1;
}

int cmd_shard_reap(const Options& options, const std::string& queue_dir) {
  dt::ReapOptions opts = options.reap;
  opts.queue_dir = queue_dir;
  opts.on_event = [](const std::string& line) { std::printf("%s\n", line.c_str()); };
  const dt::ReapOutcome outcome = dt::reap_queue(opts);
  std::printf("%s%zu claim(s) examined, %zu expired, %zu reaped"
              " (%zu journal row(s) preserved)\n",
              opts.dry_run ? "[dry run] " : "", outcome.examined, outcome.expired,
              outcome.reaped, outcome.rows_preserved);
  return 0;
}

int cmd_fault_list() {
  for (const std::string& point : dt::fault::catalogue()) {
    std::printf("%s\n", point.c_str());
  }
  if (!dt::fault::compiled_in()) {
    std::fprintf(stderr,
                 "note: fault injection is compiled out of this build"
                 " (DROWSY_CRASH_AT cannot fire; build with"
                 " -DDROWSY_FAULT_INJECTION=ON)\n");
    return 1;
  }
  return 0;
}

// --- study subcommands --------------------------------------------------------

/// A study with its --set overrides applied.  The overrides come in
/// after parsing, so they may appear anywhere on the command line; a bad
/// one is a usage error naming --set.
struct StudyArgs {
  const st::Study* study = nullptr;
  st::StudyParams params;
};

StudyArgs resolve_study(const std::string& name, const std::vector<std::string>& sets) {
  StudyArgs args;
  args.study = st::StudyRegistry::builtin().find(name);
  if (args.study == nullptr) {
    throw std::runtime_error("no such study: " + name + " (try 'drowsy_sweep study list')");
  }
  args.params = args.study->params;
  for (const std::string& token : sets) {
    try {
      args.params.set_from_token(token);
    } catch (const st::StudyError& e) {
      throw cli::UsageError(std::string("--set: ") + e.what());
    }
  }
  return args;
}

int cmd_study_list() {
  for (const st::Study& study : st::StudyRegistry::builtin().all()) {
    std::printf("%-24s %-22s %s\n", study.name.c_str(), study.figure.c_str(),
                study.description.c_str());
    std::printf("%-24s   params: %s\n", "", study.params.describe().c_str());
  }
  return 0;
}

/// Print the figure CSV and honor --out (exact CSV bytes, no banner).
bool emit_figure_csv(const std::string& csv, const std::string& out_path) {
  std::fwrite(csv.data(), 1, csv.size(), stdout);
  if (out_path.empty()) return true;
  return sc::write_file(out_path, csv);
}

int cmd_study_run(const Options& opts, const std::string& name) {
  const StudyArgs a = resolve_study(name, opts.sets);
  const auto jobs = st::jobs_for(*a.study, a.params);
  std::printf("== study %s (%s): %zu runs [%s] ==\n", a.study->name.c_str(),
              a.study->figure.c_str(), jobs.size(), a.params.describe().c_str());
  const st::StudyOutcome outcome = st::run_study(*a.study, a.params, opts.threads);
  bool ok = emit_figure_csv(outcome.csv, opts.out);
  if (!opts.emit.runs_csv.empty()) {
    ok &= sc::write_file(opts.emit.runs_csv, sc::to_csv(outcome.results));
  }
  std::printf("\ntraces materialized: %llu (reused %llu times)\n",
              static_cast<unsigned long long>(outcome.trace_misses),
              static_cast<unsigned long long>(outcome.trace_hits));
  return ok ? 0 : 1;
}

int cmd_study_dump(const Options& opts, const std::string& name) {
  const StudyArgs a = resolve_study(name, opts.sets);
  const std::string text = ec::to_json(a.study->sweep(a.params)).dump();
  std::fwrite(text.data(), 1, text.size(), stdout);
  if (!opts.out.empty() && !sc::write_file(opts.out, text)) return 1;
  return 0;
}

int cmd_study_reduce(const Options& opts, const std::string& name) {
  const StudyArgs a = resolve_study(name, opts.sets);
  const auto jobs = st::jobs_for(*a.study, a.params);
  const auto entries = read_journal_set(opts.journals);
  // merge_journals proves coverage (missing/duplicate/foreign rows are
  // hard errors) and restores canonical order; reduce_study re-checks the
  // rows against the study grid, so wrong --set parameters cannot
  // silently produce a wrong figure.
  const auto results = dt::merge_journals(jobs, entries);
  return emit_figure_csv(st::reduce_study(*a.study, a.params, jobs, results), opts.out) ? 0
                                                                                       : 1;
}

/// Every subcommand's flag table, bound to `o`, in --help order.
std::vector<cli::Command> commands(Options& o) {
  using Args = std::vector<std::string>;
  constexpr cli::Arity None = cli::Arity::none, One = cli::Arity::one, Any = cli::Arity::any;
  o.daemon.worker_id = host_pid();
  o.reap.reaper_id = o.daemon.worker_id;
  const cli::Flag threads = cli::number("--threads", "N", o.threads);
  const cli::Flag alpha{"--alpha", "A", [&o](const std::string& v) {
                          o.emit.alpha = cli::parse_number<double>(v);
                          if (o.emit.alpha <= 0.0 || o.emit.alpha >= 1.0) {
                            throw std::runtime_error("must be in (0, 1)");
                          }
                        }};
  const std::vector<cli::Flag> emit = {
      alpha, cli::text("--csv", "F", o.emit.stats_csv),
      cli::text("--runs-csv", "F", o.emit.runs_csv), cli::text("--json", "F", o.emit.stats_json),
      cli::text("--verdicts-csv", "F", o.emit.verdicts_csv)};
  const cli::Flag journals = cli::list("--journal", "F", o.journals, /*required=*/true);
  const cli::Flag set = cli::list("--set", "k=v", o.sets);
  const cli::Flag out = cli::text("--out", "F", o.out);
  const auto join = [](std::vector<cli::Flag> head, const std::vector<cli::Flag>& tail) {
    head.insert(head.end(), tail.begin(), tail.end());
    return head;
  };
  return {
      {"run", One, "<sweep.json>",
       join(join({threads}, emit), {cli::text("--trace-out", "DIR", o.trace_out),
                                    cli::text("--metrics-json", "F", o.metrics_json)}),
       [&o](const Args& a) { return cmd_run(o, a[0]); }},
      {"validate", One, "<sweep.json>", {}, [](const Args& a) { return cmd_validate(a[0]); }},
      {"list", None, "", {}, [](const Args&) { return cmd_list(); }},
      {"dump", Any, "[<scenario>...]", {}, cmd_dump},
      {"shard plan", One, "<sweep.json>",
       {cli::positive("--shards", "N", o.shards, /*required=*/true),
        cli::text("--out-dir", "D", o.out_dir), cli::list("--costs", "J", o.costs)},
       [&o](const Args& a) { return cmd_shard_plan(o, a[0]); }},
      {"shard run", One, "<manifest.json>", {threads},
       [&o](const Args& a) { return cmd_shard_run(o, a[0]); }},
      {"shard merge", One, "<sweep.json>", join({journals}, emit),
       [&o](const Args& a) { return cmd_shard_merge(o, a[0]); }},
      // status's --json is a switch, unlike merge's `--json F`: status has
      // exactly one report, which goes to stdout.
      {"shard status", One, "<sweep.json>",
       {journals, cli::text("--queue-dir", "D", o.queue_dir),
        cli::toggle("--json", o.json_report)},
       [&o](const Args& a) { return cmd_shard_status(o, a[0]); }},
      {"shard daemon", One, "<queue-dir>",
       {cli::text("--worker-id", "W", o.daemon.worker_id),
        cli::number("--threads", "N", o.daemon.threads),
        cli::positive("--poll-ms", "P", o.daemon.poll_ms),
        cli::number("--max-idle-s", "S", o.daemon.max_idle_s),
        cli::positive("--lease-ttl-s", "S", o.daemon.lease_ttl_s),
        cli::toggle("--no-reap", o.daemon.reap, false)},
       [&o](const Args& a) { return cmd_shard_daemon(o, a[0]); }},
      {"shard reap", One, "<queue-dir>",
       {cli::toggle("--dry-run", o.reap.dry_run), cli::text("--reaper-id", "R", o.reap.reaper_id)},
       [&o](const Args& a) { return cmd_shard_reap(o, a[0]); }},
      {"fault list", None, "", {}, [](const Args&) { return cmd_fault_list(); }},
      {"study list", None, "", {}, [](const Args&) { return cmd_study_list(); }},
      {"study run", One, "<study>",
       {set, threads, out, cli::text("--runs-csv", "F", o.emit.runs_csv)},
       [&o](const Args& a) { return cmd_study_run(o, a[0]); }},
      {"study dump", One, "<study>", {set, out},
       [&o](const Args& a) { return cmd_study_dump(o, a[0]); }},
      {"study reduce", One, "<study>", {set, journals, out},
       [&o](const Args& a) { return cmd_study_reduce(o, a[0]); }},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<cli::Command> all = commands(opts);
  // Arm before any command runs so every subcommand — daemon, reap,
  // merge — can be crashed from the outside; a typo'd point name dies
  // there.
  for (cli::Command& command : all) {
    command.run = [run = std::move(command.run)](const std::vector<std::string>& args) {
      dt::fault::arm_from_env();
      return run(args);
    };
  }
  return cli::run(argc, argv, "drowsy_sweep", all, "docs/drowsy_sweep.md");
}

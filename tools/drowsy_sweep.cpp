// drowsy_sweep — drive the scenario catalogue from JSON sweep files,
// no recompilation required.
//
//   drowsy_sweep run <sweep.json> [--threads N] [--alpha A]
//                    [--csv stats.csv] [--runs-csv runs.csv]
//                    [--json stats.json] [--verdicts-csv verdicts.csv]
//                    [--bench-json bench.json] [--trace-out DIR]
//                    [--metrics-json metrics.json]
//       Expand the sweep into its (scenario x axes x policy x seed) job
//       grid, execute it on the parallel BatchRunner (traces materialized
//       once per sweep via TraceCache), print the replicate-statistics
//       table (mean ± CI-95) and the per-policy-pair Welch verdicts, and
//       optionally write CSV/JSON artifacts plus a wall-clock/trace-cache
//       benchmark record.  --trace-out writes one Perfetto-loadable
//       timeline per run into DIR, stamped in sim time and byte-identical
//       at any --threads value; --metrics-json flushes a worker metrics
//       snapshot (obs/snapshot.hpp) after every finished run.
//   drowsy_sweep validate <sweep.json>
//       Parse and expand without running; prints the job count.
//   drowsy_sweep list
//       Registry scenario names with descriptions.
//   drowsy_sweep dump [<scenario>...]
//       Serialize registry scenarios (all by default) as JSON — the
//       starting point for hand-edited sweep files.
//
// Sharded execution (multi-machine sweeps; see README "Sharded sweeps"):
//
//   drowsy_sweep shard plan <sweep.json> --shards N
//                    [--strategy contiguous|strided|balanced] [--out-dir D]
//       Split the job grid into N shards (balanced by estimated job cost
//       by default) and write one manifest per shard to D (default ".").
//   drowsy_sweep shard run <manifest.json> [--sweep PATH] [--threads N]
//                    [--journal F]
//       Execute a shard's outstanding jobs, appending each finished run
//       to the journal (default: <manifest stem>.journal.jsonl).  Safe to
//       kill and re-invoke: completed (spec-hash, policy, seed) jobs are
//       skipped and a torn journal tail is truncated.
//   drowsy_sweep shard merge <sweep.json> --journal F [--journal F ...]
//                    [--alpha A] [--csv F] [--runs-csv F] [--json F]
//                    [--verdicts-csv F]
//       Validate that the journals cover the grid exactly once, restore
//       canonical job order, and emit the same tables/artifacts as `run`
//       — byte-identical to a single-process execution of the sweep.
//   drowsy_sweep shard status <sweep.json> --journal F [--journal F ...]
//                    [--queue-dir D] [--json]
//       Coverage report: completed/missing/duplicate/foreign counts plus
//       per-journal measured wall-clock totals.  With --queue-dir, also
//       merge every worker's metrics snapshot (<queue>/metrics/*.json)
//       into the fleet view, list every claim with its lease headroom,
//       and warn about claims whose lease has expired or is missing.
//       --json emits the same report as one JSON document (claims and
//       workers included) for reapers and dashboards; exit codes are
//       unchanged.
//   drowsy_sweep shard daemon <queue-dir> [--worker-id W] [--threads N]
//                    [--poll-ms P] [--max-idle-s S] [--lease-ttl-s S]
//                    [--no-reap]
//       Long-running worker: claim manifests from the queue directory
//       (atomic rename; safe with many daemons on a shared filesystem),
//       execute each through the crash-safe journal path, archive to
//       done/ or failed/, and poll until a STOP sentinel or idleness.
//       Every claim carries a lease renewed after every journal row;
//       while idle the daemon reaps other workers' expired claims back
//       into the queue (disable with --no-reap).
//   drowsy_sweep shard reap <queue-dir> [--dry-run] [--reaper-id R]
//       Return dead workers' claims to the queue: every claim whose
//       lease has expired or is missing is atomically re-enqueued, its
//       journal's valid prefix published beside it for the next owner
//       to resume.
//       Each reap is appended to <queue>/reaped/reap.journal.jsonl.
//
// Fault injection (chaos testing; see docs/sweeps.md):
//
//   drowsy_sweep fault list
//       The crash-point catalogue.  Arm one with
//       DROWSY_CRASH_AT=<point>[:<nth>] — the process _exit()s with
//       code 86 the nth time execution reaches the point.  Compiled out
//       of Release builds (arming then fails loudly).
//
// Paper-figure studies (src/study; see docs/studies.md):
//
//   drowsy_sweep study list
//       Registered studies with their paper figure and parameters.
//   drowsy_sweep study run <study> [--set k=v ...] [--threads N]
//                    [--out F] [--runs-csv F]
//       Expand the study's grid, execute it on the BatchRunner and print
//       the reduced figure CSV (--out writes exactly those bytes).
//   drowsy_sweep study dump <study> [--set k=v ...] [--out F]
//       The study's grid as a self-contained sweep JSON — feed it to
//       `shard plan` and the queue daemons to run a study distributed.
//   drowsy_sweep study reduce <study> [--set k=v ...] --journal F...
//                    [--out F]
//       Merge the journals of a sharded study run (coverage-validated,
//       canonical order restored) and emit the figure CSV —
//       byte-identical to a single-process `study run`.
//
// Full reference (flags, file formats, exit codes): docs/drowsy_sweep.md.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

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
#include "util/log.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;
namespace st = drowsy::study;

namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s run <sweep.json> [--threads N] [--alpha A] [--csv F]"
               " [--runs-csv F] [--json F] [--verdicts-csv F] [--bench-json F]"
               " [--trace-out DIR] [--metrics-json F]\n"
               "       %s validate <sweep.json>\n"
               "       %s list\n"
               "       %s dump [<scenario>...]\n"
               "       %s shard plan <sweep.json> --shards N [--strategy S] [--out-dir D]"
               " [--costs JOURNAL ...]\n"
               "       %s shard run <manifest.json> [--sweep PATH] [--threads N]"
               " [--journal F]\n"
               "       %s shard merge <sweep.json> --journal F... [--alpha A] [--csv F]"
               " [--runs-csv F] [--json F] [--verdicts-csv F]\n"
               "       %s shard status <sweep.json> --journal F... [--queue-dir D]"
               " [--json]\n"
               "       %s shard daemon <queue-dir> [--worker-id W] [--threads N]"
               " [--poll-ms P] [--max-idle-s S] [--lease-ttl-s S] [--no-reap]\n"
               "       %s shard reap <queue-dir> [--dry-run] [--reaper-id R]\n"
               "       %s fault list\n"
               "       %s study list\n"
               "       %s study run <study> [--set k=v ...] [--threads N] [--out F]"
               " [--runs-csv F]\n"
               "       %s study dump <study> [--set k=v ...] [--out F]\n"
               "       %s study reduce <study> [--set k=v ...] --journal F... [--out F]\n"
               "see docs/drowsy_sweep.md for the full reference\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
               argv0, argv0, argv0, argv0, argv0);
}

int usage(const char* argv0) {
  print_usage(stderr, argv0);
  return 2;
}

struct LoadedSweep {
  ec::SweepSpec sweep;
  std::string bytes;  ///< raw file content (hashed into shard manifests)
};

LoadedSweep load_sweep(const std::string& path) {
  LoadedSweep loaded;
  loaded.bytes = ec::read_file(path);
  // Anchor every parse/spec failure at the file it came from: a bad
  // trace kind three levels deep then reads
  //   "bad.json: sweep.scenarios[0]: ... workload.kind: unknown trace
  //    kind \"x\" (known: daily-backup, ...)".
  try {
    const ec::Json doc = ec::Json::parse(loaded.bytes);
    loaded.sweep = ec::sweep_from_json(doc, sc::ScenarioRegistry::builtin());
  } catch (const ec::SpecError& e) {
    throw ec::SpecError(path + ": " + e.what());
  } catch (const ec::JsonError& e) {
    throw ec::SpecError(path + ": " + e.what());
  }
  return loaded;
}

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
  const LoadedSweep loaded = load_sweep(path);
  const auto jobs = ec::expand(loaded.sweep);
  std::printf("%s: OK — %zu scenario(s) x %zu policy(ies) -> %zu runs\n",
              loaded.sweep.name.c_str(), loaded.sweep.scenarios.size(),
              loaded.sweep.policies.size(), jobs.size());
  return 0;
}

/// argv[i+1] as the value of `flag`, advancing i; exits with usage status
/// when the value is missing.  The one flag-parsing primitive every
/// subcommand shares.
const char* flag_value(int argc, char** argv, int& i, const char* flag) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s requires a value\n", flag);
    std::exit(2);
  }
  return argv[++i];
}

/// The value of `flag` parsed as a T (an unsigned integer, which rejects
/// a sign, or a double, which must be finite); the whole token must parse —
/// "3x" or "10ms" is a usage error (exit 2), never a silent prefix.
/// Range checks stay with the caller.
template <typename T>
T number_flag(int argc, char** argv, int& i, const char* flag) {
  const char* text = flag_value(argc, argv, i, flag);
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "%s: \"%s\" is not %s\n", flag, text,
                 std::is_floating_point_v<T> ? "a number" : "a non-negative integer");
    std::exit(2);
  }
  return value;
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

bool parse_emit_flag(int argc, char** argv, int& i, EmitOptions& opts) {
  const auto value = [&](const char* flag) { return flag_value(argc, argv, i, flag); };
  if (std::strcmp(argv[i], "--alpha") == 0) {
    opts.alpha = number_flag<double>(argc, argv, i, "--alpha");
    if (opts.alpha <= 0.0 || opts.alpha >= 1.0) {
      std::fprintf(stderr, "--alpha must be in (0, 1)\n");
      std::exit(2);
    }
  } else if (std::strcmp(argv[i], "--csv") == 0) {
    opts.stats_csv = value("--csv");
  } else if (std::strcmp(argv[i], "--runs-csv") == 0) {
    opts.runs_csv = value("--runs-csv");
  } else if (std::strcmp(argv[i], "--json") == 0) {
    opts.stats_json = value("--json");
  } else if (std::strcmp(argv[i], "--verdicts-csv") == 0) {
    opts.verdicts_csv = value("--verdicts-csv");
  } else {
    return false;
  }
  return true;
}

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

// --- run ----------------------------------------------------------------------

struct RunOptions {
  std::string sweep_path;
  std::size_t threads = 0;  // hardware concurrency
  EmitOptions emit;
  std::string bench_json;
  std::string trace_out;     ///< directory for per-run Perfetto timelines
  std::string metrics_json;  ///< worker metrics snapshot, flushed per run
};

int cmd_run(const RunOptions& opts) {
  const LoadedSweep loaded = load_sweep(opts.sweep_path);
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

  const auto start = std::chrono::steady_clock::now();
  const auto results = runner.run(jobs, on_complete, probe);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  bool ok = emit_results(results, opts.emit);
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

  if (!opts.bench_json.empty()) {
    ec::Json bench = ec::Json::object();
    bench.set("sweep", loaded.sweep.name);
    bench.set("runs", static_cast<std::uint64_t>(jobs.size()));
    bench.set("threads", static_cast<std::uint64_t>(runner.thread_count()));
    bench.set("wall_clock_seconds", wall_seconds);
    bench.set("trace_cache_hits", runner.last_trace_hits());
    bench.set("trace_cache_misses", runner.last_trace_misses());
    ok &= sc::write_file(opts.bench_json, bench.dump());
  }
  return ok ? 0 : 1;
}

// --- shard subcommands --------------------------------------------------------

/// <stem>.journal.jsonl next to the manifest ("shard_0.json" ->
/// "shard_0.journal.jsonl").
std::string default_journal_path(const std::string& manifest_path) {
  std::string stem = manifest_path;
  const std::string suffix = ".json";
  if (stem.size() > suffix.size() &&
      stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) == 0) {
    stem.resize(stem.size() - suffix.size());
  }
  return stem + ".journal.jsonl";
}

int cmd_shard_plan(int argc, char** argv) {
  std::string sweep_path;
  std::string out_dir = ".";
  std::size_t shards = 0;
  dt::ShardStrategy strategy = dt::ShardStrategy::Balanced;
  std::vector<std::string> cost_journals;
  for (int i = 3; i < argc; ++i) {
    const auto value = [&](const char* flag) { return flag_value(argc, argv, i, flag); };
    if (std::strcmp(argv[i], "--shards") == 0) {
      shards = number_flag<std::size_t>(argc, argv, i, "--shards");
      if (shards == 0) {
        std::fprintf(stderr, "--shards must be positive\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--strategy") == 0) {
      strategy = dt::shard_strategy_from_string(value("--strategy"));
    } else if (std::strcmp(argv[i], "--out-dir") == 0) {
      out_dir = value("--out-dir");
    } else if (std::strcmp(argv[i], "--costs") == 0) {
      cost_journals.push_back(value("--costs"));
    } else if (sweep_path.empty() && argv[i][0] != '-') {
      sweep_path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (sweep_path.empty() || shards == 0) return usage(argv[0]);

  const LoadedSweep loaded = load_sweep(sweep_path);
  const auto jobs = ec::expand(loaded.sweep);

  // Static heuristic costs are always computed: without --costs they
  // drive the plan; with --costs they anchor the predicted-vs-measured
  // balance report.
  std::vector<double> static_costs(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    static_costs[i] = dt::estimate_job_cost(jobs[i]);
  }

  dt::CostModel::JobCosts priced;
  const bool use_measured = !cost_journals.empty();
  if (use_measured) {
    dt::CostModel model;
    for (const std::string& path : cost_journals) {
      model.add_journal(dt::read_journal(path).entries);
    }
    priced = model.price(jobs);
    std::printf("cost model: %zu journal(s) -> %zu exact, %zu scenario-level,"
                " %zu heuristic job price(s)\n",
                cost_journals.size(), priced.measured, priced.scenario, priced.heuristic);
  }
  const std::vector<double>& plan_costs = use_measured ? priced.cost : static_costs;
  const auto plan = dt::plan_shards(jobs, shards, strategy, plan_costs);

  if (mkdir(out_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", out_dir.c_str());
    return 1;
  }

  std::printf("== %s: %zu jobs -> %zu shard(s), %s ==\n", loaded.sweep.name.c_str(),
              jobs.size(), shards, dt::to_string(strategy));
  bool ok = true;
  const std::vector<double> planned_totals = dt::shard_costs(plan, plan_costs);
  const std::vector<double> static_totals = dt::shard_costs(plan, static_costs);
  for (std::size_t s = 0; s < plan.size(); ++s) {
    dt::ShardManifest manifest;
    manifest.sweep_name = loaded.sweep.name;
    manifest.sweep_file = sweep_path;
    manifest.sweep_hash = ec::fnv1a64(loaded.bytes);
    manifest.shard_index = s;
    manifest.shard_count = shards;
    manifest.strategy = strategy;
    manifest.total_jobs = jobs.size();
    manifest.job_indices = plan[s];

    const std::string path = out_dir + "/shard_" + std::to_string(s) + ".json";
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
    const auto static_plan = dt::plan_shards(jobs, shards, strategy, static_costs);
    std::printf("predicted balance (max/min shard cost, measured model):\n"
                "  measured-cost plan    %.3f\n"
                "  static-heuristic plan %.3f\n",
                dt::cost_spread(planned_totals),
                dt::cost_spread(dt::shard_costs(static_plan, priced.cost)));
  }
  return ok ? 0 : 1;
}

int cmd_shard_run(int argc, char** argv) {
  std::string manifest_path;
  std::string sweep_override;
  std::string journal_path;
  std::size_t threads = 0;
  for (int i = 3; i < argc; ++i) {
    const auto value = [&](const char* flag) { return flag_value(argc, argv, i, flag); };
    if (std::strcmp(argv[i], "--sweep") == 0) {
      sweep_override = value("--sweep");
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      journal_path = value("--journal");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = number_flag<std::size_t>(argc, argv, i, "--threads");
    } else if (manifest_path.empty() && argv[i][0] != '-') {
      manifest_path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (manifest_path.empty()) return usage(argv[0]);
  if (journal_path.empty()) journal_path = default_journal_path(manifest_path);

  const dt::ShardManifest manifest =
      dt::manifest_from_json(ec::Json::parse(ec::read_file(manifest_path)));
  const std::string sweep_path =
      sweep_override.empty() ? manifest.sweep_file : sweep_override;
  const LoadedSweep loaded = load_sweep(sweep_path);
  const auto jobs = ec::expand(loaded.sweep);
  dt::validate_manifest(manifest, loaded.bytes, jobs.size());

  std::printf("== %s shard %zu/%zu: %zu job(s), journal %s ==\n",
              manifest.sweep_name.c_str(), manifest.shard_index, manifest.shard_count,
              manifest.job_indices.size(), journal_path.c_str());
  const dt::ShardRunOutcome outcome = dt::run_shard(jobs, manifest, journal_path, threads);
  std::printf("resumed %zu, executed %zu (traces materialized %llu, reused %llu)\n",
              outcome.resumed, outcome.executed,
              static_cast<unsigned long long>(outcome.trace_misses),
              static_cast<unsigned long long>(outcome.trace_hits));
  return 0;
}

/// Shared by merge/status: sweep path then one or more --journal flags.
struct JournalSetOptions {
  std::string sweep_path;
  std::vector<std::string> journals;
  EmitOptions emit;
  std::string queue_dir;  ///< status only: scan claimed/ for leases
  bool json = false;      ///< status only: machine-readable report
};

int parse_journal_set(int argc, char** argv, JournalSetOptions& opts, bool allow_emit,
                      bool allow_queue = false) {
  for (int i = 3; i < argc; ++i) {
    const auto value = [&](const char* flag) { return flag_value(argc, argv, i, flag); };
    if (std::strcmp(argv[i], "--journal") == 0) {
      opts.journals.push_back(value("--journal"));
    } else if (allow_emit && parse_emit_flag(argc, argv, i, opts.emit)) {
      // handled
    } else if (allow_queue && std::strcmp(argv[i], "--queue-dir") == 0) {
      opts.queue_dir = value("--queue-dir");
    } else if (allow_queue && std::strcmp(argv[i], "--json") == 0) {
      // Valueless here, unlike merge's `--json F` emit flag: status has
      // exactly one report, which goes to stdout.
      opts.json = true;
    } else if (opts.sweep_path.empty() && argv[i][0] != '-') {
      opts.sweep_path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.sweep_path.empty() || opts.journals.empty()) return usage(argv[0]);
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

int cmd_shard_merge(int argc, char** argv) {
  JournalSetOptions opts;
  if (const int rc = parse_journal_set(argc, argv, opts, /*allow_emit=*/true); rc != 0) {
    return rc;
  }
  const LoadedSweep loaded = load_sweep(opts.sweep_path);
  const auto jobs = ec::expand(loaded.sweep);
  const auto entries = read_journal_set(opts.journals);
  const auto results = dt::merge_journals(jobs, entries);
  std::printf("== %s: merged %zu run(s) from %zu journal(s) ==\n\n",
              loaded.sweep.name.c_str(), results.size(), opts.journals.size());
  return emit_results(results, opts.emit) ? 0 : 1;
}

int cmd_shard_status(int argc, char** argv) {
  JournalSetOptions opts;
  if (const int rc = parse_journal_set(argc, argv, opts, /*allow_emit=*/false,
                                       /*allow_queue=*/true);
      rc != 0) {
    return rc;
  }
  const LoadedSweep loaded = load_sweep(opts.sweep_path);
  const auto jobs = ec::expand(loaded.sweep);
  // Per-journal accounting: progress in wall-clock terms, not just row
  // counts — a shard with 3 of 4 rows done may still own most of the
  // remaining work.
  struct JournalTotals {
    std::string path;
    std::size_t rows = 0;
    double wall_ms = 0.0;
  };
  std::vector<JournalTotals> totals;
  const auto entries = read_journal_set(
      opts.journals,
      [&](const std::string& path, const dt::JournalContents& contents) {
        JournalTotals t;
        t.path = path;
        t.rows = contents.entries.size();
        for (const dt::JournalEntry& entry : contents.entries) t.wall_ms += entry.wall_ms;
        if (!opts.json) {
          std::printf("  %-40s %4zu row(s)  wall %10.0f ms\n", t.path.c_str(), t.rows,
                      t.wall_ms);
        }
        totals.push_back(std::move(t));
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
  if (opts.json) {
    // One JSON document on stdout; the exit code still carries the
    // complete/incomplete verdict so scripts need not parse to gate.
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
    ec::Json journals = ec::Json::array();
    for (const JournalTotals& t : totals) {
      ec::Json row = ec::Json::object();
      row.set("path", t.path);
      row.set("rows", static_cast<std::uint64_t>(t.rows));
      row.set("wall_ms", t.wall_ms);
      journals.push_back(std::move(row));
    }
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
    std::printf("%s\n", j.dump(2).c_str());
    return cov.complete() ? 0 : 3;
  }
  std::printf("%s: %zu/%zu run(s) complete\n", loaded.sweep.name.c_str(), cov.completed,
              cov.total);
  if (!cov.missing.empty()) {
    std::printf("  missing: %zu (first grid index %zu)\n", cov.missing.size(),
                cov.missing.front());
  }
  if (!cov.duplicates.empty()) {
    std::printf("  duplicates: %zu (first grid index %zu)\n", cov.duplicates.size(),
                cov.duplicates.front());
  }
  if (!cov.foreign.empty()) {
    std::printf("  foreign rows: %zu (e.g. %s)\n", cov.foreign.size(),
                cov.foreign.front().c_str());
  }
  for (const drowsy::obs::WorkerSnapshot& w : workers) {
    std::printf("  worker %-20s %llu job(s), %llu task(s) done, %llu failed, "
                "%llu events profiled\n",
                w.worker_id.c_str(), static_cast<unsigned long long>(w.jobs_done),
                static_cast<unsigned long long>(w.tasks_done),
                static_cast<unsigned long long>(w.tasks_failed),
                static_cast<unsigned long long>(w.profile.total_events()));
  }
  for (const dt::ClaimInfo& claim : claims) {
    if (!claim.expired()) {
      std::printf("  claim %s (worker %s): lease %.0f s remaining\n",
                  claim.manifest_path.c_str(), claim.worker_id.c_str(),
                  claim.lease_remaining_s());
      continue;
    }
    char why[64] = "no lease";
    if (claim.has_lease) {
      std::snprintf(why, sizeof(why), "lease expired %.0f s ago", -claim.lease_remaining_s());
    }
    std::printf("  warning: expired claim %s (worker %s, %s) — run `shard reap`, "
                "or restart a daemon with --worker-id %s\n",
                claim.manifest_path.c_str(), claim.worker_id.c_str(), why,
                claim.worker_id.c_str());
  }
  if (!opts.queue_dir.empty() && !reaps.empty()) {
    std::printf("  reaped claims: %zu (last: %s from %s by %s)\n", reaps.size(),
                reaps.back().manifest.c_str(), reaps.back().worker_id.c_str(),
                reaps.back().reaper_id.c_str());
  }
  return cov.complete() ? 0 : 3;  // distinct from hard errors (1) and usage (2)
}

int cmd_shard_daemon(int argc, char** argv) {
  dt::DaemonOptions opts;
  // The claiming protocol needs worker ids unique per live daemon; a
  // bare pid collides across machines/containers sharing one queue.
  char host[256] = "host";
  static_cast<void>(gethostname(host, sizeof(host) - 1));
  opts.worker_id = std::string(host) + "-" + std::to_string(static_cast<long>(getpid()));
  for (int i = 3; i < argc; ++i) {
    const auto value = [&](const char* flag) { return flag_value(argc, argv, i, flag); };
    if (std::strcmp(argv[i], "--worker-id") == 0) {
      opts.worker_id = value("--worker-id");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.threads = number_flag<std::size_t>(argc, argv, i, "--threads");
    } else if (std::strcmp(argv[i], "--poll-ms") == 0) {
      opts.poll_ms = number_flag<unsigned>(argc, argv, i, "--poll-ms");
      if (opts.poll_ms == 0) {
        std::fprintf(stderr, "--poll-ms must be positive\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--max-idle-s") == 0) {
      opts.max_idle_s = number_flag<double>(argc, argv, i, "--max-idle-s");
    } else if (std::strcmp(argv[i], "--lease-ttl-s") == 0) {
      opts.lease_ttl_s = number_flag<double>(argc, argv, i, "--lease-ttl-s");
      if (opts.lease_ttl_s <= 0.0) {
        std::fprintf(stderr, "--lease-ttl-s must be positive\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-reap") == 0) {
      opts.reap = false;
    } else if (opts.queue_dir.empty() && argv[i][0] != '-') {
      opts.queue_dir = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.queue_dir.empty()) return usage(argv[0]);

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

int cmd_shard_reap(int argc, char** argv) {
  dt::ReapOptions opts;
  char host[256] = "host";
  static_cast<void>(gethostname(host, sizeof(host) - 1));
  opts.reaper_id =
      std::string(host) + "-" + std::to_string(static_cast<long>(getpid()));
  for (int i = 3; i < argc; ++i) {
    const auto value = [&](const char* flag) { return flag_value(argc, argv, i, flag); };
    if (std::strcmp(argv[i], "--dry-run") == 0) {
      opts.dry_run = true;
    } else if (std::strcmp(argv[i], "--reaper-id") == 0) {
      opts.reaper_id = value("--reaper-id");
    } else if (opts.queue_dir.empty() && argv[i][0] != '-') {
      opts.queue_dir = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.queue_dir.empty()) return usage(argv[0]);
  opts.on_event = [](const std::string& line) { std::printf("%s\n", line.c_str()); };
  const dt::ReapOutcome outcome = dt::reap_queue(opts);
  std::printf("%s%zu claim(s) examined, %zu expired, %zu reaped"
              " (%zu journal row(s) preserved)\n",
              opts.dry_run ? "[dry run] " : "", outcome.examined, outcome.expired,
              outcome.reaped, outcome.rows_preserved);
  return 0;
}

int cmd_fault(int argc, char** argv) {
  if (argc != 3 || std::strcmp(argv[2], "list") != 0) return usage(argv[0]);
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

/// Shared by run/dump/reduce: study name, --set overrides, then the
/// verb-specific flags the caller accepts.
struct StudyOptions {
  const st::Study* study = nullptr;
  st::StudyParams params;
  std::size_t threads = 0;
  std::string out_path;
  std::string runs_csv;
  std::vector<std::string> journals;
};

int parse_study(int argc, char** argv, StudyOptions& opts, bool allow_run_flags,
                bool allow_journals) {
  std::string name;
  for (int i = 3; i < argc; ++i) {
    const auto value = [&](const char* flag) { return flag_value(argc, argv, i, flag); };
    if (std::strcmp(argv[i], "--set") == 0) {
      if (opts.study == nullptr) {
        std::fprintf(stderr, "--set must follow the study name\n");
        return 2;
      }
      opts.params.set_from_token(value("--set"));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      opts.out_path = value("--out");
    } else if (allow_run_flags && std::strcmp(argv[i], "--threads") == 0) {
      opts.threads = number_flag<std::size_t>(argc, argv, i, "--threads");
    } else if (allow_run_flags && std::strcmp(argv[i], "--runs-csv") == 0) {
      opts.runs_csv = value("--runs-csv");
    } else if (allow_journals && std::strcmp(argv[i], "--journal") == 0) {
      opts.journals.push_back(value("--journal"));
    } else if (name.empty() && argv[i][0] != '-') {
      name = argv[i];
      const st::Study* study = st::StudyRegistry::builtin().find(name);
      if (study == nullptr) {
        std::fprintf(stderr, "no such study: %s (try 'drowsy_sweep study list')\n",
                     name.c_str());
        return 1;
      }
      opts.study = study;
      opts.params = study->params;
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.study == nullptr) return usage(argv[0]);
  return 0;
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

int cmd_study_run(int argc, char** argv) {
  StudyOptions opts;
  if (const int rc = parse_study(argc, argv, opts, /*allow_run_flags=*/true,
                                 /*allow_journals=*/false);
      rc != 0) {
    return rc;
  }
  const auto jobs = st::jobs_for(*opts.study, opts.params);
  std::printf("== study %s (%s): %zu runs [%s] ==\n", opts.study->name.c_str(),
              opts.study->figure.c_str(), jobs.size(), opts.params.describe().c_str());
  const st::StudyOutcome outcome = st::run_study(*opts.study, opts.params, opts.threads);
  bool ok = emit_figure_csv(outcome.csv, opts.out_path);
  if (!opts.runs_csv.empty()) {
    ok &= sc::write_file(opts.runs_csv, sc::to_csv(outcome.results));
  }
  std::printf("\ntraces materialized: %llu (reused %llu times)\n",
              static_cast<unsigned long long>(outcome.trace_misses),
              static_cast<unsigned long long>(outcome.trace_hits));
  return ok ? 0 : 1;
}

int cmd_study_dump(int argc, char** argv) {
  StudyOptions opts;
  if (const int rc = parse_study(argc, argv, opts, /*allow_run_flags=*/false,
                                 /*allow_journals=*/false);
      rc != 0) {
    return rc;
  }
  const std::string text = ec::to_json(opts.study->sweep(opts.params)).dump();
  std::fwrite(text.data(), 1, text.size(), stdout);
  if (!opts.out_path.empty() && !sc::write_file(opts.out_path, text)) return 1;
  return 0;
}

int cmd_study_reduce(int argc, char** argv) {
  StudyOptions opts;
  if (const int rc = parse_study(argc, argv, opts, /*allow_run_flags=*/false,
                                 /*allow_journals=*/true);
      rc != 0) {
    return rc;
  }
  if (opts.journals.empty()) return usage(argv[0]);
  const auto jobs = st::jobs_for(*opts.study, opts.params);
  const auto entries = read_journal_set(opts.journals);
  // merge_journals proves coverage (missing/duplicate/foreign rows are
  // hard errors) and restores canonical order; reduce_study re-checks the
  // rows against the study grid, so wrong --set parameters cannot
  // silently produce a wrong figure.
  const auto results = dt::merge_journals(jobs, entries);
  return emit_figure_csv(st::reduce_study(*opts.study, opts.params, jobs, results),
                         opts.out_path)
             ? 0
             : 1;
}

int cmd_study(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string verb = argv[2];
  if (verb == "list") return argc == 3 ? cmd_study_list() : usage(argv[0]);
  if (verb == "run") return cmd_study_run(argc, argv);
  if (verb == "dump") return cmd_study_dump(argc, argv);
  if (verb == "reduce") return cmd_study_reduce(argc, argv);
  return usage(argv[0]);
}

int cmd_shard(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string verb = argv[2];
  if (verb == "plan") return cmd_shard_plan(argc, argv);
  if (verb == "run") return cmd_shard_run(argc, argv);
  if (verb == "merge") return cmd_shard_merge(argc, argv);
  if (verb == "status") return cmd_shard_status(argc, argv);
  if (verb == "daemon") return cmd_shard_daemon(argc, argv);
  if (verb == "reap") return cmd_shard_reap(argc, argv);
  return usage(argv[0]);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    print_usage(stdout, argv[0]);
    return 0;
  }
  try {
    // Arm before any dispatch so every subcommand — daemon, reap, merge —
    // can be crashed from the outside; a typo'd point name dies here.
    dt::fault::arm_from_env();
    if (command == "list") {
      if (argc != 2) return usage(argv[0]);
      return cmd_list();
    }
    if (command == "dump") {
      return cmd_dump(std::vector<std::string>(argv + 2, argv + argc));
    }
    if (command == "validate") {
      if (argc != 3) return usage(argv[0]);
      return cmd_validate(argv[2]);
    }
    if (command == "shard") {
      return cmd_shard(argc, argv);
    }
    if (command == "fault") {
      return cmd_fault(argc, argv);
    }
    if (command == "study") {
      return cmd_study(argc, argv);
    }
    if (command == "run") {
      RunOptions opts;
      for (int i = 2; i < argc; ++i) {
        const auto value = [&](const char* flag) { return flag_value(argc, argv, i, flag); };
        if (std::strcmp(argv[i], "--threads") == 0) {
          opts.threads = number_flag<std::size_t>(argc, argv, i, "--threads");
        } else if (std::strcmp(argv[i], "--bench-json") == 0) {
          opts.bench_json = value("--bench-json");
        } else if (std::strcmp(argv[i], "--trace-out") == 0) {
          opts.trace_out = value("--trace-out");
        } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
          opts.metrics_json = value("--metrics-json");
        } else if (parse_emit_flag(argc, argv, i, opts.emit)) {
          // handled
        } else if (opts.sweep_path.empty() && argv[i][0] != '-') {
          opts.sweep_path = argv[i];
        } else {
          return usage(argv[0]);
        }
      }
      if (opts.sweep_path.empty()) return usage(argv[0]);
      return cmd_run(opts);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drowsy_sweep %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage(argv[0]);
}

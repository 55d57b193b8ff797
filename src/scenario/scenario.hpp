// Declarative workload scenarios.
//
// A ScenarioSpec is a complete, serializable description of one experiment:
// fleet size, VM mix (each group a declarative reference into
// trace::generators), policy-independent tunables (power model, durations,
// request rate, seeds).  Pairing a spec with a Policy yields a concrete
// deployment (ScenarioRun) — the same wiring the hand-coded bench drivers
// used to repeat, factored out so that "one figure = one bespoke binary"
// becomes "one registry entry = one row in a sweep".
//
// Determinism contract: a (spec, policy, seed) triple fully determines the
// run.  Every stochastic input (trace synthesis, request arrivals, baseline
// tie-breaking) is seeded from the triple via mix_seed, and the simulation
// itself is single-threaded over sim::EventQueue's (time, seq)-ordered
// events — so results are bit-identical no matter how many batch threads
// execute runs concurrently.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/neat.hpp"
#include "baselines/oasis.hpp"
#include "core/drowsy.hpp"
#include "net/sdn_switch.hpp"
#include "netsim/dispatcher.hpp"
#include "netsim/wake_fabric.hpp"
#include "sim/cluster.hpp"
#include "trace/generators.hpp"
#include "util/sim_time.hpp"

namespace drowsy::scenario {

/// Deterministically combine two seeds (SplitMix64 finalizer).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

// --- workload composition ----------------------------------------------------

/// Which trace::generators recipe drives a VM group.
enum class TraceKind {
  DailyBackup,     ///< Table II(a): active `span_hours` from `hour` every day
  ComicStrips,     ///< Table II(b): 3x/week, idle in July/August
  LlmuConstant,    ///< Table II(h): always active around `level`
  NutanixLike,     ///< Fig. 1 production LLMI reconstruction, `variant` 0-4
  DiplomaResults,  ///< §I example: one yearly spike (July 20th, 2pm)
  OfficeHours,     ///< 9-17 on weekdays
  EndOfMonth,      ///< last days of every month, overnight batch
  GoogleLlmu,      ///< §VI-B Google-like busy random walk
  RandomLlmi,      ///< randomized periodic LLMI template
  PhaseWindow,     ///< daily `span_hours` window starting at `hour` (Fig. 5)
  DutyCycle,       ///< active `span_hours` out of every `period_hours`
  FileReplay,      ///< replay a column of a trace/csv file (src/replay)
};

[[nodiscard]] const char* to_string(TraceKind k);

/// Declarative trace recipe; knobs not used by a kind are ignored.
struct TraceSpec {
  TraceKind kind = TraceKind::RandomLlmi;
  std::size_t years = 1;    ///< generated length before periodic extension
  double noise = 0.0;       ///< additive uniform jitter on active hours
  double level = -1.0;      ///< activity amplitude; <0 = generator default
  int hour = 2;             ///< window start (DailyBackup/PhaseWindow/DutyCycle)
  int span_hours = 0;       ///< window length; 0 = kind default
  int period_hours = 24;    ///< DutyCycle period
  std::size_t variant = 0;  ///< NutanixLike template / FileReplay column index
  /// Base seed.  0 means "derive from the run seed" (replicates differ);
  /// non-zero pins the workload across replicates (paper-fidelity mode).
  /// FileReplay ignores seeds entirely — the file is the workload.
  std::uint64_t seed = 0;
  // FileReplay-only knobs (ignored — and not serialized — otherwise).
  std::string path{};    ///< trace/csv file; resolved via replay::resolve_trace_path
  std::string select{};  ///< column name; "" = pick column `variant % ncols`
  int downsample = 1;  ///< mean-pool every N hours into one (N >= 1)
};

/// Instantiate the recipe.  `fallback_seed` is used when `spec.seed == 0`.
[[nodiscard]] trace::ActivityTrace materialize(const TraceSpec& spec,
                                               std::uint64_t fallback_seed);

/// A homogeneous slice of the VM population.
struct VmGroup {
  std::string name_prefix = "vm";
  int first_index = 0;  ///< names run prefix+first_index .. prefix+first_index+count-1
  int count = 1;
  int vcpus = 2;
  int memory_mb = 6144;
  TraceSpec workload;
  /// true: every VM in the group receives the *identical* trace (the
  /// paper's V3/V4 pair); false: per-VM seeds (and, for NutanixLike,
  /// per-VM variants) are derived by VM index.
  bool shared_workload = false;
};

// --- the scenario ------------------------------------------------------------

/// Network-in-the-loop wake-fabric knobs (src/netsim).  Default-valued
/// specs serialize *without* a "net" object, so every pre-existing sweep
/// JSON and spec hash stays byte-identical (the PR 6 TraceSpec precedent).
struct NetSpec {
  /// Route wakes through the modeled switch (port latency + serialization)
  /// instead of the fiat-constant path.
  bool enabled = false;
  util::SimTime port_latency = 1;   ///< per-frame propagation, ms
  util::SimTime serialization = 0;  ///< switch egress occupancy per frame, ms
  // DrowsyNetBatch staggered-wake admission knobs.
  int wake_max_in_flight = 2;
  util::SimTime wake_stagger = 200;
  util::SimTime wake_admission_window = util::seconds(5);

  [[nodiscard]] bool operator==(const NetSpec&) const = default;
};

/// Consolidation policy selection for a run.
enum class Policy {
  DrowsyDc,       ///< idleness-aware relocation + suspension + grace time
  NeatS3,         ///< Neat placement + Drowsy's suspension, no grace time
  NeatVanilla,    ///< Neat placement, only *empty* hosts suspend
  NeatNoSuspend,  ///< Neat placement, hosts never sleep (power baseline)
  Oasis,          ///< pairwise idleness matching (EuroSys '16)
  DrowsyNetBatch, ///< Drowsy-DC + model-driven staggered pre-wakes (netsim)
};

[[nodiscard]] const char* to_string(Policy p);

/// The three headline systems the paper compares (§VI).
inline constexpr std::array<Policy, 3> kPaperPolicies = {
    Policy::DrowsyDc, Policy::NeatS3, Policy::Oasis};

/// One complete experiment description.
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::string paper_figure;  ///< which paper figure it reproduces; "" = none

  // Fleet.
  int hosts = 4;
  std::string host_prefix = "H";
  int host_first_index = 0;
  sim::HostSpec host_template{"", 8, 16384, 2};  ///< name field is ignored
  sim::PowerModel power{};

  // Population.
  std::vector<VmGroup> vms;

  // Timeline and load.
  int pretrain_days = 14;  ///< model warm-up fed from traces, not simulated
  int duration_days = 3;   ///< simulated days
  double request_rate_per_hour = 40.0;

  // Policy-independent controller knobs.
  std::uint64_t seed = 42;  ///< default seed; batch jobs may override
  bool relocate_all = false;     ///< §VI-A-1 full-relocation evaluation mode
  bool quick_resume = true;      ///< the paper's optimized ≈800 ms resume
  bool opportunistic_step = true;  ///< Drowsy's 7σ step (ablation knob)
  util::SimTime suspend_check_interval = util::seconds(30);
  /// Grace-time band (§IV, "between 5s and 2min"); only Drowsy-DC uses
  /// grace time, so these are ablation axes for the headline policy.
  util::SimTime grace_min = util::seconds(5);
  util::SimTime grace_max = util::minutes(2);

  /// Wake-fabric knobs; all-default = the historical fiat-wake behavior.
  NetSpec net{};

  [[nodiscard]] int total_vms() const;

  /// Structural check: returns "" when the spec is sound, else a
  /// human-readable problem description.  Guarantees that build() can
  /// round-robin-place every VM within host capacity.
  [[nodiscard]] std::string validate() const;
};

/// A built deployment: the spec's cluster, wired controller and baseline
/// policy, ready to pretrain and run.  Owns the whole simulation state.
struct ScenarioRun {
  sim::EventQueue queue;
  sim::Cluster cluster;
  /// Switch egress pipe; exact passthrough when the spec has no net knobs,
  /// so fiat-wake runs keep their historical event ordering bit-for-bit.
  netsim::EventQueueDispatcher dispatcher;
  net::SdnSwitch sdn;
  std::unique_ptr<netsim::WakeFabric> net;  ///< planner; null unless DrowsyNetBatch
  std::unique_ptr<core::ConsolidationPolicy> baseline;  ///< null = Drowsy-DC
  std::unique_ptr<core::Controller> controller;
  Policy policy;
  std::uint64_t seed = 0;

  explicit ScenarioRun(sim::ClusterConfig config, const NetSpec& net_spec = {})
      : cluster(queue, std::move(config)),
        dispatcher(queue, net_spec.enabled ? net_spec.serialization : 0),
        sdn(dispatcher, net_spec.enabled ? net_spec.port_latency : 0) {}
};

class TraceCache;  // scenario/trace_cache.hpp

/// Instantiate `spec` under `policy`.  Throws std::invalid_argument when
/// validate() fails.  `seed` replaces spec.seed as the run seed.  A
/// non-null `trace_cache` memoizes trace materialization across builds
/// (sweeps repeat identical traces under every policy arm); results are
/// bit-identical with and without it.
[[nodiscard]] std::unique_ptr<ScenarioRun> build(const ScenarioSpec& spec,
                                                 Policy policy, std::uint64_t seed,
                                                 TraceCache* trace_cache = nullptr);

/// Convenience overload using spec.seed.
[[nodiscard]] std::unique_ptr<ScenarioRun> build(const ScenarioSpec& spec,
                                                 Policy policy);

// --- outcomes ----------------------------------------------------------------

/// Aggregate metrics of one finished run (one CSV row).
struct RunResult {
  std::string scenario;
  std::string policy;
  std::uint64_t seed = 0;
  std::int64_t simulated_hours = 0;
  double kwh = 0.0;
  double suspend_fraction = 0.0;  ///< global fraction of host-time in S3
  double sla_attainment = 0.0;
  double wake_latency_p99_ms = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t wakes = 0;
  int migrations = 0;
  int suspends = 0;  ///< total S0→S3 transitions across hosts
  /// Per-host fraction of host-time in S3, in host-id order (Table I's
  /// per-host rows).
  std::vector<double> host_suspend_fraction;
  // Wake-fabric metrics.  Zero for fiat-wake runs.
  double switch_queue_delay_p99_ms = 0.0;  ///< p99 frame wait at the switch
  std::uint64_t wol_frames = 0;            ///< WoL magic packets injected
  /// Always 0: nothing models a host cut off from the switch.  The field
  /// and its runs-CSV/journal column stay until the next schema change,
  /// as perfbench's `netsim.host_unreachable_s` still reads it.
  double host_unreachable_s = 0.0;
};

/// Collect a RunResult from a finished deployment.
[[nodiscard]] RunResult harvest(const std::string& scenario_name, ScenarioRun& run);

// --- observation -------------------------------------------------------------

/// Per-run observer created by a RunProbe.  Constructed after build()
/// (its constructor installs hooks on the freshly built ScenarioRun:
/// host transition observers, queue profiling, switch analyzers),
/// notified once after harvest, destroyed before the run is —
/// so its destructor may still touch run state (e.g. detach the queue
/// profile, flush a trace file).
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  /// Called once, after harvest, with the run's summary.
  virtual void on_finished(const RunResult& result) { (void)result; }
};

/// Observer factory invoked per run.  BatchRunner calls it from worker
/// threads, so the factory itself must be thread-safe; each returned
/// observer is only ever used by the one thread driving its run.  May
/// return null to skip observing a run.
using RunProbe = std::function<std::unique_ptr<RunObserver>(
    const ScenarioSpec& spec, Policy policy, std::uint64_t seed, ScenarioRun& run)>;

/// Build, pretrain, simulate and summarize one (spec, policy, seed) triple.
/// `trace_cache` (optional) memoizes trace synthesis across runs.
/// `probe` (optional) observes the run; observation never alters results —
/// the simulation output is byte-identical with and without it.
[[nodiscard]] RunResult run_one(const ScenarioSpec& spec, Policy policy,
                                std::uint64_t seed, TraceCache* trace_cache = nullptr,
                                const RunProbe* probe = nullptr);

}  // namespace drowsy::scenario

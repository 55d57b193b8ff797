#include "scenario/scenario.hpp"

#include <stdexcept>

#include "replay/replay.hpp"
#include "scenario/trace_cache.hpp"
#include "util/rng.hpp"

namespace drowsy::scenario {

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a + 0x9E3779B97F4A7C15ull * (b + 0x632BE59BD9B4E019ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::DailyBackup: return "daily-backup";
    case TraceKind::ComicStrips: return "comic-strips";
    case TraceKind::LlmuConstant: return "llmu-constant";
    case TraceKind::NutanixLike: return "nutanix-like";
    case TraceKind::DiplomaResults: return "diploma-results";
    case TraceKind::OfficeHours: return "office-hours";
    case TraceKind::EndOfMonth: return "end-of-month";
    case TraceKind::GoogleLlmu: return "google-llmu";
    case TraceKind::RandomLlmi: return "random-llmi";
    case TraceKind::PhaseWindow: return "phase-window";
    case TraceKind::DutyCycle: return "duty-cycle";
    case TraceKind::FileReplay: return "file-replay";
  }
  return "?";
}

const char* to_string(Policy p) {
  switch (p) {
    case Policy::DrowsyDc: return "drowsy-dc";
    case Policy::NeatS3: return "neat+s3";
    case Policy::NeatVanilla: return "neat";
    case Policy::NeatNoSuspend: return "neat-nosleep";
    case Policy::Oasis: return "oasis";
    case Policy::DrowsyNetBatch: return "drowsy-netbatch";
  }
  return "?";
}

namespace {

/// Active `span` hours out of every `period`, window starting at `start`
/// (mod period), at `level` with a small deterministic jitter.  period=24
/// reproduces the Fig. 5 "time zone" phase traces.
trace::ActivityTrace duty_cycle(int period, int start, int span, double level,
                                double noise, std::size_t years, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> hours;
  const std::size_t total = years * static_cast<std::size_t>(util::kHoursPerYear);
  hours.reserve(total);
  for (std::size_t h = 0; h < total; ++h) {
    const int offset = (static_cast<int>(h % static_cast<std::size_t>(period)) -
                        start % period + period) %
                       period;
    double value = 0.0;
    if (offset < span) {
      value = level + rng.uniform(-0.05, 0.05);
      if (noise > 0.0) value += rng.uniform(-noise, noise);
      if (value < 0.0) value = 0.0;
      if (value > 1.0) value = 1.0;
    }
    hours.push_back(value);
  }
  return trace::ActivityTrace(std::move(hours),
                              "duty-" + std::to_string(span) + "of" +
                                  std::to_string(period) + "@" + std::to_string(start));
}

double level_or(const TraceSpec& spec, double fallback) {
  return spec.level < 0.0 ? fallback : spec.level;
}

}  // namespace

trace::ActivityTrace materialize(const TraceSpec& spec, std::uint64_t fallback_seed) {
  const std::uint64_t seed = spec.seed != 0 ? spec.seed : fallback_seed;
  trace::GenOptions o;
  o.years = spec.years;
  o.noise = spec.noise;
  o.seed = seed;
  switch (spec.kind) {
    case TraceKind::DailyBackup:
      return trace::daily_backup(o, spec.hour, spec.span_hours > 0 ? spec.span_hours : 1,
                                 level_or(spec, 0.8));
    case TraceKind::ComicStrips:
      return trace::comic_strips(o);
    case TraceKind::LlmuConstant:
      return trace::llmu_constant(o, level_or(spec, 0.75));
    case TraceKind::NutanixLike:
      return trace::nutanix_like(spec.variant % 5, o);
    case TraceKind::DiplomaResults:
      return trace::diploma_results(o);
    case TraceKind::OfficeHours:
      return trace::office_hours(o, level_or(spec, 0.5));
    case TraceKind::EndOfMonth:
      return trace::end_of_month(o, spec.span_hours > 0 ? spec.span_hours / 24 + 1 : 2,
                                 level_or(spec, 0.7));
    case TraceKind::GoogleLlmu:
      return trace::google_like_llmu(o);
    case TraceKind::RandomLlmi:
      return trace::random_llmi(seed, spec.years);
    case TraceKind::PhaseWindow:
      return duty_cycle(24, spec.hour, spec.span_hours > 0 ? spec.span_hours : 4,
                        level_or(spec, 0.5), spec.noise, spec.years, seed);
    case TraceKind::DutyCycle:
      return duty_cycle(spec.period_hours > 0 ? spec.period_hours : 24, spec.hour,
                        spec.span_hours > 0 ? spec.span_hours : 6, level_or(spec, 0.9),
                        spec.noise, spec.years, seed);
    case TraceKind::FileReplay:
      // No seed touches this path: the file *is* the workload, so two
      // replicates of a replay scenario see identical traces by design.
      return replay::select_column(*replay::load_replay_file(spec.path), spec.select,
                                   spec.variant, spec.downsample);
  }
  throw std::invalid_argument("unknown TraceKind");
}

int ScenarioSpec::total_vms() const {
  int total = 0;
  for (const VmGroup& g : vms) total += g.count;
  return total;
}

namespace {

/// Names flow unescaped into CSV/JSON summaries; keep them identifiers.
bool safe_name(const std::string& s) {
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::string ScenarioSpec::validate() const {
  if (name.empty()) return "scenario has no name";
  if (!safe_name(name)) {
    return name + ": scenario names are limited to [A-Za-z0-9._-]"
           " (they are emitted unescaped into CSV/JSON)";
  }
  if (hosts <= 0) return name + ": needs at least one host";
  if (vms.empty() || total_vms() <= 0) return name + ": needs at least one VM";
  if (duration_days <= 0) return name + ": duration_days must be positive";
  if (pretrain_days < 0) return name + ": pretrain_days must be non-negative";
  if (request_rate_per_hour < 0.0) return name + ": request rate must be non-negative";
  if (suspend_check_interval <= 0) return name + ": suspend check interval must be positive";
  if (grace_min <= 0) return name + ": grace_min must be positive";
  if (grace_max < grace_min) return name + ": grace_max must be >= grace_min";
  if (net.port_latency < 0) return name + ": net.port_latency must be >= 0";
  if (net.serialization < 0) return name + ": net.serialization must be >= 0";
  if (net.wake_max_in_flight < 1) {
    return name + ": net.wake_max_in_flight must be >= 1";
  }
  if (net.wake_stagger < 0 || net.wake_admission_window < 0) {
    return name + ": net wake stagger/admission window must be >= 0";
  }
  for (const VmGroup& g : vms) {
    if (g.count <= 0) return name + ": VM group '" + g.name_prefix + "' has count <= 0";
    if (g.vcpus <= 0 || g.memory_mb <= 0) {
      return name + ": VM group '" + g.name_prefix + "' has non-positive resources";
    }
    if (g.workload.years == 0) {
      return name + ": VM group '" + g.name_prefix + "' has a zero-length workload";
    }
    if (g.workload.kind == TraceKind::FileReplay) {
      if (g.workload.path.empty()) {
        return name + ": file-replay group '" + g.name_prefix + "' needs a trace path";
      }
      if (g.workload.downsample < 1) {
        return name + ": file-replay group '" + g.name_prefix + "' has downsample < 1";
      }
    } else if (!g.workload.path.empty() || !g.workload.select.empty()) {
      return name + ": VM group '" + g.name_prefix +
             "' sets path/select but is not file-replay";
    }
    if (!g.shared_workload && g.workload.kind == TraceKind::NutanixLike &&
        g.workload.seed != 0 && g.count > 5) {
      // Variants wrap at the 5 Fig. 1 templates, and pinned seeds do not
      // vary by member for this kind — member 5 would duplicate member 0.
      return name + ": pinned-seed NutanixLike group '" + g.name_prefix +
             "' cannot exceed the 5 distinct variants";
    }
  }
  // Round-robin placement feasibility: the worst-loaded host receives
  // ceil(total/hosts) VMs drawn from the largest groups; bound with the
  // per-host VM count and the fattest VM repeated.
  const int total = total_vms();
  const int per_host = (total + hosts - 1) / hosts;
  if (host_template.max_vms > 0 && per_host > host_template.max_vms) {
    return name + ": " + std::to_string(total) + " VMs over " + std::to_string(hosts) +
           " hosts exceeds " + std::to_string(host_template.max_vms) + " slots per host";
  }
  int max_vcpus = 0, max_mem = 0;
  for (const VmGroup& g : vms) {
    max_vcpus = std::max(max_vcpus, g.vcpus);
    max_mem = std::max(max_mem, g.memory_mb);
  }
  if (per_host * max_vcpus > host_template.cpu_capacity) {
    return name + ": round-robin placement can exceed host vCPU capacity";
  }
  if (per_host * max_mem > host_template.memory_mb) {
    return name + ": round-robin placement can exceed host memory";
  }
  return {};
}

std::unique_ptr<ScenarioRun> build(const ScenarioSpec& spec, Policy policy,
                                   std::uint64_t seed, TraceCache* trace_cache) {
  if (std::string problem = spec.validate(); !problem.empty()) {
    throw std::invalid_argument("invalid scenario: " + problem);
  }

  sim::ClusterConfig cluster_config;
  cluster_config.power = spec.power;
  auto run = std::make_unique<ScenarioRun>(cluster_config, spec.net);
  run->policy = policy;
  run->seed = seed;

  for (int i = 0; i < spec.hosts; ++i) {
    sim::HostSpec host = spec.host_template;
    host.name = spec.host_prefix + std::to_string(spec.host_first_index + i);
    run->cluster.add_host(std::move(host));
  }

  std::size_t group_index = 0;
  for (const VmGroup& g : spec.vms) {
    for (int i = 0; i < g.count; ++i) {
      TraceSpec workload = g.workload;
      const int member = g.shared_workload ? 0 : i;
      if (!g.shared_workload && (workload.kind == TraceKind::NutanixLike ||
                                 (workload.kind == TraceKind::FileReplay &&
                                  workload.select.empty()))) {
        // nutanix_like decorrelates by variant internally (seed + variant),
        // matching the nutanix_week catalogue when the seed stays fixed.
        // FileReplay without an explicit column walks the file's columns
        // the same way (wrapping at the column count).
        workload.variant += static_cast<std::size_t>(i);
      } else if (workload.seed != 0 && member > 0) {
        // Pinned workload: the group's first member keeps the base seed;
        // later members mix in their index.  Mixing (not adding) keeps
        // nearby base seeds in different groups from colliding into
        // identical jitter streams.
        workload.seed = mix_seed(workload.seed, static_cast<std::uint64_t>(member));
      }
      // Chain group and member through the mixer so no group size can
      // alias one group's members onto the next group's stream.
      const std::uint64_t fallback =
          mix_seed(mix_seed(seed, group_index + 1), static_cast<std::uint64_t>(member));
      // The cache hands back a shared immutable trace; copying its hour
      // vector is a memcpy, far cheaper than re-running the generator.
      trace::ActivityTrace tr = trace_cache
                                    ? *trace_cache->get(workload, fallback)
                                    : materialize(workload, fallback);
      run->cluster.add_vm(
          sim::VmSpec{g.name_prefix + std::to_string(g.first_index + i), g.vcpus,
                      g.memory_mb},
          std::move(tr));
    }
    ++group_index;
  }

  // Interleaved initial placement: classes mixed on every host so the
  // consolidation policy has work to do (every bench did exactly this).
  const auto vm_count = static_cast<sim::VmId>(run->cluster.vms().size());
  for (sim::VmId id = 0; id < vm_count; ++id) {
    if (!run->cluster.place(id, id % static_cast<sim::HostId>(spec.hosts))) {
      throw std::runtime_error("scenario " + spec.name +
                               ": initial placement failed for VM " + std::to_string(id));
    }
  }

  core::ControllerOptions opts;
  opts.requests.base_rate_per_hour = spec.request_rate_per_hour;
  opts.requests.seed = mix_seed(seed, 0xF00DULL);
  opts.quick_resume = spec.quick_resume;
  // DrowsyNetBatch is Drowsy-DC placement/suspension plus the netsim
  // staggered pre-wake planner, so it inherits every Drowsy-DC flag.
  const bool drowsy_like = policy == Policy::DrowsyDc || policy == Policy::DrowsyNetBatch;
  opts.relocate_all = spec.relocate_all && drowsy_like;
  opts.drowsy.suspend.check_interval = spec.suspend_check_interval;
  opts.drowsy.suspend.grace_min = spec.grace_min;
  opts.drowsy.suspend.grace_max = spec.grace_max;
  opts.drowsy.placement.opportunistic_step = spec.opportunistic_step;
  // Policy wiring mirrors the paper's §VI-A-1 ground rules: every baseline
  // that suspends uses "the exact same algorithm as Drowsy-DC, the grace
  // time excepted"; vanilla Neat only powers down *empty* hosts.
  opts.drowsy.suspend.enabled = policy != Policy::NeatNoSuspend;
  opts.drowsy.suspend.use_grace_time = drowsy_like;
  opts.drowsy.suspend.only_empty_hosts = policy == Policy::NeatVanilla;

  switch (policy) {
    case Policy::DrowsyDc:
    case Policy::DrowsyNetBatch:
      break;
    case Policy::NeatS3:
    case Policy::NeatVanilla:
    case Policy::NeatNoSuspend:
      run->baseline = std::make_unique<baselines::NeatConsolidation>(run->cluster);
      break;
    case Policy::Oasis:
      run->baseline = std::make_unique<baselines::OasisConsolidation>(run->cluster);
      break;
  }

  run->controller = std::make_unique<core::Controller>(run->cluster, run->sdn, opts);
  if (run->baseline) run->controller->set_policy(run->baseline.get());
  run->controller->install();

  if (policy == Policy::DrowsyNetBatch) {
    netsim::FabricConfig fc;
    fc.wake_max_in_flight = spec.net.wake_max_in_flight;
    fc.wake_stagger = spec.net.wake_stagger;
    fc.wake_admission_window = spec.net.wake_admission_window;
    // Pre-wake when any resident VM's idleness model leans active for
    // the coming hour (negative raw IP, the §III convention).
    run->net = std::make_unique<netsim::WakeFabric>(
        run->cluster, run->sdn, fc,
        [ctl = run->controller.get()](const sim::Host& host, std::int64_t hour) {
          const util::CalendarTime c = util::calendar_of(hour * util::kMsPerHour);
          for (const sim::Vm* vm : host.vms()) {
            if (ctl->models().vm_ip(vm->id(), c).raw < 0.0) return true;
          }
          return false;
        });
  }
  return run;
}

std::unique_ptr<ScenarioRun> build(const ScenarioSpec& spec, Policy policy) {
  return build(spec, policy, spec.seed);
}

RunResult harvest(const std::string& scenario_name, ScenarioRun& run) {
  RunResult r;
  r.scenario = scenario_name;
  r.policy = to_string(run.policy);
  r.seed = run.seed;
  r.simulated_hours = util::hour_index(run.queue.now());

  // Energy first: total_kwh() brings every host's accounting up to now.
  r.kwh = run.cluster.total_kwh();
  const sim::RequestFabric& fabric = run.controller->fabric();
  const auto& requests = fabric.stats();
  r.requests = requests.total;
  r.wakes = requests.woke_host;
  r.sla_attainment = requests.sla_attainment(fabric.config().sla_ms);
  if (!requests.wake_latencies_ms.empty()) {
    r.wake_latency_p99_ms = requests.wake_latencies_ms.quantile(0.99);
  }
  r.migrations = run.cluster.total_migrations();

  // Table I: per-host and global fractions of host-time in S3.
  double s3_ms = 0.0;
  for (const auto& host : run.cluster.hosts()) {
    r.suspends += host->suspend_count();
    host->account_now();
    r.host_suspend_fraction.push_back(host->suspended_fraction(0));
    s3_ms += static_cast<double>(host->time_in(sim::PowerState::S3));
  }
  const double host_ms = static_cast<double>(run.cluster.hosts().size()) *
                         static_cast<double>(run.queue.now());
  r.suspend_fraction = host_ms > 0.0 ? s3_ms / host_ms : 0.0;

  // Wake-fabric metrics.  WoL frames count every magic packet injected:
  // the waking modules' (packet- and schedule-triggered) plus the
  // planner's pre-wakes.
  r.switch_queue_delay_p99_ms = run.dispatcher.queue_delay_p99_ms();
  const core::WakingStats& wp = run.controller->waking_primary().stats();
  const core::WakingStats& ws = run.controller->waking_standby()->stats();
  r.wol_frames = wp.packet_wakes + wp.scheduled_wakes + ws.packet_wakes + ws.scheduled_wakes;
  if (run.net) r.wol_frames += run.net->wol_frames();
  return r;
}

RunResult run_one(const ScenarioSpec& spec, Policy policy, std::uint64_t seed,
                  TraceCache* trace_cache, const RunProbe* probe) {
  std::unique_ptr<ScenarioRun> run = build(spec, policy, seed, trace_cache);
  // The observer installs its hooks on the built run; declared after
  // `run` so it is destroyed first (its destructor may detach the queue
  // profile or flush a trace while the run is still alive).
  std::unique_ptr<RunObserver> observer;
  if (probe != nullptr && *probe) observer = (*probe)(spec, policy, seed, *run);
  run->controller->pretrain_models(static_cast<std::int64_t>(spec.pretrain_days) *
                                   util::kHoursPerDay);
  std::function<void(std::int64_t)> on_hour_end;
  if (run->net) {
    on_hour_end = [fabric = run->net.get()](std::int64_t h) { fabric->on_hour_end(h); };
  }
  run->controller->run_hours(static_cast<std::int64_t>(spec.duration_days) *
                                 util::kHoursPerDay,
                             on_hour_end);
  RunResult result = harvest(spec.name, *run);
  if (observer) observer->on_finished(result);
  return result;
}

}  // namespace drowsy::scenario

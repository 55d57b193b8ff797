#include "scenario/registry.hpp"

#include <stdexcept>

namespace drowsy::scenario {

void ScenarioRegistry::add(ScenarioSpec spec) {
  if (std::string problem = spec.validate(); !problem.empty()) {
    throw std::invalid_argument("scenario rejected: " + problem);
  }
  if (find(spec.name) != nullptr) {
    throw std::invalid_argument("scenario name already registered: " + spec.name);
  }
  scenarios_.push_back(std::move(spec));
}

const ScenarioSpec* ScenarioRegistry::find(const std::string& name) const {
  for (const ScenarioSpec& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const ScenarioSpec& ScenarioRegistry::at(const std::string& name) const {
  const ScenarioSpec* s = find(name);
  if (s == nullptr) throw std::out_of_range("no such scenario: " + name);
  return *s;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const ScenarioSpec& s : scenarios_) out.push_back(s.name);
  return out;
}

namespace {

/// §VI-A real-environment testbed: 4 pool hosts (P2-P5, 2 slots each),
/// 2 LLMU VMs (V1, V2) and 6 LLMI VMs (V3-V8) where V3 and V4 receive
/// the exact same workload.  Workload seeds are pinned for paper fidelity.
/// One deviation from the pre-scenario testbed bench: the LLMI traces
/// are full-year nutanix_like generations (fresh per-week jitter) rather
/// than one week tiled across the year, so outputs shifted slightly; the
/// paper's anchors (V3==V4 colocation, energy ordering) still hold.
ScenarioSpec paper_testbed() {
  ScenarioSpec s;
  s.name = "paper-testbed";
  s.description = "the paper's real-environment pool: 2 LLMU + 6 LLMI VMs on 4 hosts";
  s.paper_figure = "Fig. 1/2, Table I, SVI-A";
  s.hosts = 4;
  s.host_prefix = "P";
  s.host_first_index = 2;
  s.host_template = {"", 8, 16384, 2};
  s.vms = {
      {.name_prefix = "V",
       .first_index = 1,
       .count = 2,
       .workload = {.kind = TraceKind::LlmuConstant, .noise = 0.02, .seed = 42}},
      {.name_prefix = "V",
       .first_index = 3,
       .count = 2,
       .workload = {.kind = TraceKind::NutanixLike, .variant = 0, .seed = 42},
       .shared_workload = true},
      {.name_prefix = "V",
       .first_index = 5,
       .count = 4,
       .workload = {.kind = TraceKind::NutanixLike, .variant = 1, .seed = 42}},
  };
  s.pretrain_days = 13;
  s.duration_days = 7;
  s.request_rate_per_hour = 40.0;
  s.relocate_all = true;  // the SVI-A-1 periodic full-relocation methodology
  return s;
}

/// The Fig. 4 / Table II trace catalogue deployed as a small fleet: one VM
/// per trace type, so policy comparisons see every idleness shape at once.
ScenarioSpec paper_im_traces() {
  ScenarioSpec s;
  s.name = "paper-im-traces";
  s.description = "Table II trace catalogue as a fleet: backup, comics, 5 production, LLMU";
  s.paper_figure = "Fig. 4, Table II";
  s.hosts = 4;
  s.host_template = {"", 8, 16384, 4};
  s.vms = {
      {.name_prefix = "backup",
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::DailyBackup, .hour = 2, .seed = 1001}},
      {.name_prefix = "comics",
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::ComicStrips, .seed = 1002}},
      {.name_prefix = "prod",
       .count = 5,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::NutanixLike, .variant = 0, .seed = 42}},
      {.name_prefix = "llmu",
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::LlmuConstant, .noise = 0.02, .seed = 1003}},
  };
  s.pretrain_days = 14;
  s.duration_days = 3;
  s.request_rate_per_hour = 30.0;
  s.relocate_all = true;
  return s;
}

/// §VI-B simulation study: phase-structured LLMI population (daily 4-hour
/// windows at six phases, like time zones) plus Google-like LLMU VMs.
ScenarioSpec paper_sim_phases() {
  ScenarioSpec s;
  s.name = "paper-sim-phases";
  s.description = "Fig. 5 simulation: 24 phase-window LLMI + 24 Google-like LLMU on 12 hosts";
  s.paper_figure = "Fig. 5, SVI-B";
  s.hosts = 12;
  s.host_template = {"", 16, 65536, 8};
  for (int phase = 0; phase < 6; ++phase) {
    s.vms.push_back({.name_prefix = "llmi-p" + std::to_string(phase * 4) + "-",
                     .count = 4,
                     .workload = {.kind = TraceKind::PhaseWindow,
                                  .hour = phase * 4,
                                  .span_hours = 4}});
  }
  s.vms.push_back(
      {.name_prefix = "llmu", .count = 24, .workload = {.kind = TraceKind::GoogleLlmu}});
  s.pretrain_days = 14;
  s.duration_days = 3;
  s.request_rate_per_hour = 30.0;
  s.suspend_check_interval = util::minutes(2);
  s.seed = 5;
  return s;
}

/// Diurnal SaaS: a web tier alive during office hours, an always-on API
/// backbone, and a few random periodic batch services.
ScenarioSpec diurnal_saas() {
  ScenarioSpec s;
  s.name = "diurnal-saas";
  s.description = "16 office-hours web VMs + 4 LLMU API VMs + 4 periodic batch VMs";
  s.hosts = 6;
  s.host_template = {"", 8, 16384, 4};
  s.vms = {
      {.name_prefix = "web",
       .count = 16,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::OfficeHours, .noise = 0.05}},
      {.name_prefix = "api",
       .count = 4,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::LlmuConstant, .noise = 0.03, .level = 0.6}},
      {.name_prefix = "batch",
       .count = 4,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::RandomLlmi}},
  };
  s.pretrain_days = 14;
  s.duration_days = 3;
  s.request_rate_per_hour = 60.0;
  s.seed = 7;
  s.relocate_all = true;
  return s;
}

/// Nightly-backup fleet: staggered 2am-ish backup jobs, nearly idle by day.
ScenarioSpec nightly_backup() {
  ScenarioSpec s;
  s.name = "nightly-backup";
  s.description = "12 staggered nightly backup VMs + 2 monitors + 2 office VMs";
  s.hosts = 4;
  s.host_template = {"", 8, 16384, 4};
  for (int hour = 1; hour <= 3; ++hour) {
    s.vms.push_back({.name_prefix = "bak" + std::to_string(hour) + "-",
                     .count = 4,
                     .memory_mb = 4096,
                     .workload = {.kind = TraceKind::DailyBackup, .noise = 0.02,
                                  .hour = hour}});
  }
  s.vms.push_back({.name_prefix = "mon",
                   .count = 2,
                   .memory_mb = 4096,
                   .workload = {.kind = TraceKind::LlmuConstant, .level = 0.5}});
  s.vms.push_back({.name_prefix = "office",
                   .count = 2,
                   .memory_mb = 4096,
                   .workload = {.kind = TraceKind::OfficeHours}});
  s.pretrain_days = 14;
  s.duration_days = 3;
  s.request_rate_per_hour = 20.0;
  s.seed = 11;
  s.relocate_all = true;
  return s;
}

/// Seasonal e-commerce: office-hours storefront, end-of-month billing,
/// a yearly flash event (the diploma-results shape) and busy search VMs.
ScenarioSpec seasonal_ecommerce() {
  ScenarioSpec s;
  s.name = "seasonal-ecommerce";
  s.description = "storefront + end-of-month billing + yearly sale spike + busy search";
  s.hosts = 5;
  s.host_template = {"", 8, 16384, 4};
  s.vms = {
      {.name_prefix = "store",
       .count = 6,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::OfficeHours, .noise = 0.05, .level = 0.45}},
      {.name_prefix = "billing",
       .count = 6,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::EndOfMonth}},
      {.name_prefix = "sale",
       .count = 4,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::DiplomaResults}},
      {.name_prefix = "search",
       .count = 4,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::GoogleLlmu}},
  };
  s.pretrain_days = 21;
  s.duration_days = 4;
  s.request_rate_per_hour = 50.0;
  s.seed = 13;
  s.relocate_all = true;
  return s;
}

/// Flash crowd: a synchronized evening spike over a mostly-idle long tail.
ScenarioSpec flash_crowd() {
  ScenarioSpec s;
  s.name = "flash-crowd";
  s.description = "8 VMs spiking together at 18:00 + 12 mostly-idle + 4 LLMU";
  s.hosts = 6;
  s.host_template = {"", 8, 16384, 4};
  s.vms = {
      {.name_prefix = "crowd",
       .count = 8,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::PhaseWindow, .level = 0.9, .hour = 18,
                    .span_hours = 2}},
      {.name_prefix = "tail",
       .count = 12,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::RandomLlmi}},
      {.name_prefix = "core",
       .count = 4,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::LlmuConstant, .noise = 0.02}},
  };
  s.pretrain_days = 14;
  s.duration_days = 3;
  s.request_rate_per_hour = 80.0;
  s.seed = 17;
  s.relocate_all = true;
  return s;
}

/// Spot churn: duty-cycled short-lived tasks at two cadences over an
/// always-busy backbone (the SLMU-heavy mix of §VI-B).
ScenarioSpec spot_churn() {
  ScenarioSpec s;
  s.name = "spot-churn";
  s.description = "16 duty-cycled spot task VMs (two cadences) + 8 LLMU backbone VMs";
  s.hosts = 6;
  s.host_template = {"", 8, 16384, 4};
  s.vms = {
      {.name_prefix = "spot-fast",
       .count = 8,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::DutyCycle, .level = 0.9, .hour = 0,
                    .span_hours = 6, .period_hours = 36}},
      {.name_prefix = "spot-slow",
       .count = 8,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::DutyCycle, .level = 0.85, .hour = 12,
                    .span_hours = 24, .period_hours = 72}},
      {.name_prefix = "backbone",
       .count = 8,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::GoogleLlmu}},
  };
  s.pretrain_days = 7;
  s.duration_days = 2;
  s.request_rate_per_hour = 40.0;
  s.seed = 19;
  s.relocate_all = true;
  return s;
}

/// Always-idle dev fleet: the suspension upper bound — sparse random
/// activity plus a low-level CI service.
ScenarioSpec dev_fleet_idle() {
  ScenarioSpec s;
  s.name = "dev-fleet-idle";
  s.description = "14 mostly-idle dev VMs + 2 low-level CI VMs";
  s.hosts = 4;
  s.host_template = {"", 8, 16384, 4};
  s.vms = {
      {.name_prefix = "dev",
       .count = 14,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::RandomLlmi}},
      {.name_prefix = "ci",
       .count = 2,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::OfficeHours, .level = 0.3}},
  };
  s.pretrain_days = 14;
  s.duration_days = 3;
  s.request_rate_per_hour = 10.0;
  s.seed = 23;
  s.relocate_all = true;
  return s;
}

/// SLA pressure on a sleeping fleet: the dev-fleet-idle population under
/// a 24x higher request rate, so nearly every request lands on a
/// suspended host and the waking module — not the suspend module —
/// decides the outcome.  Separates policies that dev-fleet-idle ties:
/// wake latency handling (grace time, quick resume) now dominates both
/// the SLA and the energy bill (every wake burns transition watts).
ScenarioSpec idle_fleet_sla_burst() {
  ScenarioSpec s;
  s.name = "idle-fleet-sla-burst";
  s.description = "mostly-idle dev fleet under 240 req/h: wake path under SLA pressure";
  s.hosts = 4;
  s.host_template = {"", 8, 16384, 4};
  s.vms = {
      {.name_prefix = "dev",
       .count = 14,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::RandomLlmi}},
      {.name_prefix = "ci",
       .count = 2,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::OfficeHours, .level = 0.3}},
  };
  s.pretrain_days = 14;
  s.duration_days = 3;
  s.request_rate_per_hour = 240.0;
  s.seed = 29;
  s.relocate_all = true;
  return s;
}

/// Wake storm: fully synchronized 1-hour activity windows (every VM in
/// the same "time zone") on an otherwise-dark fleet, plus a request
/// storm.  23 hours a day everything could sleep; at the window edge all
/// hosts must come back at once — the worst case for wake batching and
/// the sharpest contrast to paper-sim-phases' staggered phases.
ScenarioSpec wake_storm() {
  ScenarioSpec s;
  s.name = "wake-storm";
  s.description = "24 synchronized 1h-window VMs + storm of 400 req/h: all hosts wake at once";
  s.hosts = 8;
  s.host_template = {"", 8, 16384, 4};
  s.vms = {
      {.name_prefix = "burst",
       .count = 24,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::PhaseWindow, .noise = 0.02, .level = 0.9,
                    .hour = 9, .span_hours = 1}},
      {.name_prefix = "watch",
       .count = 2,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::LlmuConstant, .level = 0.3}},
  };
  s.pretrain_days = 14;
  s.duration_days = 3;
  s.request_rate_per_hour = 400.0;
  s.seed = 31;
  s.relocate_all = true;
  return s;
}

/// wake-storm with the wake fabric in the loop: same population, same
/// seed — so the request schedules match row for row — but every wake is
/// a WoL frame through the modeled switch.  The synchronized 09:00 burst
/// now queues behind itself (5 ms serialization per frame), which is the
/// contention the fiat-wake path could never show; DrowsyNetBatch's
/// staggered pre-wakes are measured against exactly this.
ScenarioSpec wake_storm_net() {
  ScenarioSpec s = wake_storm();
  s.name = "wake-storm-net";
  s.description = "wake-storm with WoL wakes routed through the modeled switch";
  s.net.enabled = true;
  s.net.port_latency = 2;
  s.net.serialization = 5;
  return s;
}

/// Fig. 3 (1b) oscillation probe: a mostly-idle fleet whose requests
/// arrive minutes apart — inside the grace band.  Without grace time a
/// host re-suspends the moment each request drains and the next one
/// wakes it again (the paper's "oscillation effect of servers
/// alternating between fully awake and suspended states"); the IP-scaled
/// grace rides through the gaps.  The fig3-grace-ablation study sweeps
/// the band's top over this scenario with drowsy-dc (grace on) against
/// neat+s3 (same suspension, grace off).
ScenarioSpec fig3_oscillation() {
  ScenarioSpec s;
  s.name = "fig3-oscillation";
  s.description = "staggered faint activity windows: request gaps land inside the grace band";
  s.paper_figure = "Fig. 3";
  s.hosts = 2;
  s.host_template = {"", 8, 16384, 4};
  // Faint (15 %) daily activity windows: requests arrive proportional to
  // activity, so during a VM's window its host sees sparse requests —
  // gaps of tens of seconds, inside the grace band.  The model learns
  // the windows (low IP there), so the grace stretches toward the band
  // top: without grace the host re-suspends after every request and the
  // next one wakes it again — the paper's oscillation — while a wider
  // band rides through more gaps.  Staggered phases keep some window
  // open around the clock.
  for (int phase = 0; phase < 6; ++phase) {
    s.vms.push_back({.name_prefix = "win" + std::to_string(phase * 4) + "-",
                     .memory_mb = 4096,
                     .workload = {.kind = TraceKind::PhaseWindow, .level = 0.15,
                                  .hour = phase * 4, .span_hours = 6}});
  }
  s.pretrain_days = 14;
  s.duration_days = 2;
  s.request_rate_per_hour = 240.0;
  s.suspend_check_interval = util::seconds(10);
  s.seed = 33;
  s.relocate_all = true;
  return s;
}

/// Real-trace replay: the checked-in Azure-style sample slice
/// (traces/azure_sample.csv, 6 VMs over 14 days — a mix of LLMU, LLMI
/// and short-lived SLMU profiles) driven through the full pipeline.
/// No trace synthesis happens: each VM replays one file column
/// (variant-indexed, so the group walks the columns), which makes this
/// the external-validity scenario — the idleness model meets traffic
/// nobody hand-shaped.  Paths are repo-relative; runs from elsewhere
/// resolve them via DROWSY_TRACE_ROOT (see docs/replay.md).
ScenarioSpec replay_azure_sample() {
  ScenarioSpec s;
  s.name = "replay-azure-sample";
  s.description = "replay of the Azure-style sample slice: 6 real-shaped VMs on 4 hosts";
  s.hosts = 4;
  s.host_template = {"", 8, 16384, 4};
  s.vms = {
      {.name_prefix = "az",
       .count = 6,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::FileReplay, .path = "traces/azure_sample.csv"}},
  };
  s.pretrain_days = 7;
  s.duration_days = 3;
  s.request_rate_per_hour = 40.0;
  s.seed = 37;
  s.relocate_all = true;
  return s;
}

/// Mixed provenance: Azure-style and Google-style replay columns beside
/// synthetic LLMU VMs — the three workload sources the policies must
/// consolidate together.  The Google columns are hour-pooled task rates
/// (bursty, sub-day lifetimes), the Azure columns are day-scale VM
/// profiles, and the synthetic backbone pins the always-busy floor.
ScenarioSpec replay_mixed() {
  ScenarioSpec s;
  s.name = "replay-mixed";
  s.description = "Azure + Google replay columns + synthetic LLMU backbone on 6 hosts";
  s.hosts = 6;
  s.host_template = {"", 8, 16384, 4};
  s.vms = {
      {.name_prefix = "az",
       .count = 6,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::FileReplay, .path = "traces/azure_sample.csv"}},
      {.name_prefix = "goog",
       .count = 5,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::FileReplay, .path = "traces/google_sample.csv"}},
      {.name_prefix = "core",
       .count = 4,
       .memory_mb = 4096,
       .workload = {.kind = TraceKind::LlmuConstant, .noise = 0.02, .level = 0.6}},
  };
  s.pretrain_days = 7;
  s.duration_days = 3;
  s.request_rate_per_hour = 50.0;
  s.seed = 41;
  s.relocate_all = true;
  return s;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry r;
    r.add(paper_testbed());
    r.add(paper_im_traces());
    r.add(paper_sim_phases());
    r.add(diurnal_saas());
    r.add(nightly_backup());
    r.add(seasonal_ecommerce());
    r.add(flash_crowd());
    r.add(spot_churn());
    r.add(dev_fleet_idle());
    r.add(idle_fleet_sla_burst());
    r.add(wake_storm());
    r.add(wake_storm_net());
    r.add(fig3_oscillation());
    r.add(replay_azure_sample());
    r.add(replay_mixed());
    return r;
  }();
  return registry;
}

}  // namespace drowsy::scenario

// The built-in paper-figure studies: the one code path that produces a
// paper figure or table.
//
// Each study re-expresses one former bench's bespoke loop at scenario
// altitude: the grid is an expctl sweep (so it shards, journals and
// caches like any other sweep) and the figure-specific columns are
// derived in the reducer.  Where the pre-study benches drove
// trace::generators or the core modules directly, the port pins the same
// trace recipes into ScenarioSpecs; deviations from the pre-port numbers
// are documented per study in docs/studies.md.
#include <algorithm>
#include <cstdlib>

#include "core/idleness_model.hpp"
#include "kern/guest_os.hpp"
#include "metrics/prediction.hpp"
#include "scenario/registry.hpp"
#include "study/study.hpp"
#include "util/thread_pool.hpp"

namespace drowsy::study {

namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;

namespace {

using sc::num;

/// Integer-seconds rendering for axis-derived columns ("15", "120").
std::string secs(util::SimTime ms) { return std::to_string(ms / util::kMsPerSecond); }

/// A 1-host, 1-VM probe scenario around one trace recipe — the shape the
/// fig1/fig4 panels share.
sc::ScenarioSpec probe_scenario(const std::string& name, sc::TraceSpec workload,
                                int duration_days) {
  sc::ScenarioSpec s;
  s.name = name;
  s.hosts = 1;
  s.host_template = {"", 8, 16384, 2};
  s.vms = {{.name_prefix = "vm", .count = 1, .workload = workload}};
  s.pretrain_days = 14;
  s.duration_days = duration_days;
  s.request_rate_per_hour = 8.0;
  s.seed = 42;
  return s;
}

// --- fig1: workload idleness profiles ------------------------------------------

/// The Fig. 1 VM rows: paper label -> NutanixLike variant.  VM3 and VM4
/// share variant 0 (the paper's "exact same workload" pair).
struct Fig1Row {
  const char* label;
  std::size_t variant;
};
constexpr Fig1Row kFig1Rows[] = {
    {"vm3", 0}, {"vm4", 0}, {"vm5", 1}, {"vm6", 2}, {"vm7", 3}, {"vm8", 4},
};

ec::SweepSpec fig1_sweep(const StudyParams& params) {
  ec::SweepSpec sweep;
  sweep.name = "fig1-workload-profiles";
  for (const Fig1Row& row : kFig1Rows) {
    sc::TraceSpec workload;
    workload.kind = sc::TraceKind::NutanixLike;
    workload.variant = row.variant;
    workload.seed = 42;  // pinned: paper-fidelity traces, stable across seeds
    sweep.scenarios.push_back(probe_scenario(std::string("fig1-") + row.label,
                                             workload, params.get_int("days")));
  }
  sweep.policies = {sc::Policy::DrowsyDc};
  sweep.replicates = 1;
  return sweep;
}

std::string fig1_reduce(const std::string& header, const StudyParams& params,
                        const std::vector<sc::RunResult>& results) {
  const ec::SweepSpec sweep = fig1_sweep(params);
  std::string out = header + "\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sc::ScenarioSpec& spec = sweep.scenarios.at(i);
    const sc::TraceSpec& workload = spec.vms.front().workload;
    // Pinned seed: the fallback is never consulted.
    const trace::ActivityTrace tr = sc::materialize(workload, /*fallback_seed=*/0);
    out += spec.name + "," + std::to_string(workload.variant) + "," +
           trace::to_string(tr.classify()) + "," + num(100.0 * tr.idle_fraction());
    // The figure plots six days regardless of how long the sim ran.
    for (int day = 0; day < 6; ++day) {
      double peak = 0.0;
      for (int h = 0; h < util::kHoursPerDay; ++h) {
        peak = std::max(peak,
                        tr.at_hour(static_cast<std::size_t>(day) * util::kHoursPerDay +
                                   static_cast<std::size_t>(h)));
      }
      out += "," + num(100.0 * peak);
    }
    out += "," + num(100.0 * results[i].suspend_fraction) + "," +
           num(results[i].kwh) + "\n";
  }
  return out;
}

Study fig1_study() {
  Study s;
  s.name = "fig1-workload-profiles";
  s.figure = "Figure 1";
  s.description = "hourly idleness profiles of the six reconstructed LLMI workloads";
  s.csv_header =
      "vm,variant,class,idle_pct,peak_d1_pct,peak_d2_pct,peak_d3_pct,peak_d4_pct,"
      "peak_d5_pct,peak_d6_pct,sim_suspend_pct,sim_kwh";
  s.params = {{"days", 6}};
  s.sweep = fig1_sweep;
  s.reduce = [header = s.csv_header](const StudyParams& params,
                                     const std::vector<sc::RunResult>& results) {
    return fig1_reduce(header, params, results);
  };
  return s;
}

// --- fig3: grace-time ablation -------------------------------------------------

/// The grace-band tops the ablation sweeps (§IV pins the band's ceiling
/// at 2 min; the axis brackets it).
constexpr util::SimTime kGraceTops[] = {
    15 * util::kMsPerSecond,
    30 * util::kMsPerSecond,
    60 * util::kMsPerSecond,
    120 * util::kMsPerSecond,
};

ec::SweepSpec fig3_sweep(const StudyParams& params) {
  ec::SweepSpec sweep;
  sweep.name = "fig3-grace-ablation";
  sc::ScenarioSpec base = sc::ScenarioRegistry::builtin().at("fig3-oscillation");
  base.duration_days = params.get_int("days");
  base.request_rate_per_hour = params.get("rate");
  sweep.scenarios.push_back(std::move(base));
  // neat+s3 is the paper's own control arm: "the exact same algorithm as
  // Drowsy-DC, the grace time excepted" — so the policy axis IS the
  // grace on/off ablation.
  sweep.policies = {sc::Policy::DrowsyDc, sc::Policy::NeatS3};
  sweep.replicates = 1;
  sweep.grace_max_axis.assign(std::begin(kGraceTops), std::end(kGraceTops));
  return sweep;
}

std::string fig3_reduce(const std::string& header, const StudyParams& params,
                        const std::vector<sc::RunResult>& results) {
  static_cast<void>(params);
  std::string out = header + "\n";
  for (const sc::RunResult& r : results) {
    // expand() suffixed the scenario with the grace-axis value:
    // "fig3-oscillation.g15000" -> 15 s.
    const std::size_t g = r.scenario.rfind(".g");
    const util::SimTime grace_ms =
        g == std::string::npos ? 0 : std::atoll(r.scenario.c_str() + g + 2);
    const double days =
        static_cast<double>(r.simulated_hours) / util::kHoursPerDay;
    out += r.scenario + "," + r.policy + "," +
           (r.policy == "drowsy-dc" ? "on" : "off") + "," + secs(grace_ms) + "," +
           std::to_string(r.suspends) + "," +
           num(days > 0.0 ? static_cast<double>(r.suspends) / days : 0.0) + "," +
           num(100.0 * r.suspend_fraction) + "," + std::to_string(r.wakes) + "," +
           num(r.wake_latency_p99_ms) + "," + num(r.kwh) + "\n";
  }
  return out;
}

Study fig3_study() {
  Study s;
  s.name = "fig3-grace-ablation";
  s.figure = "Figure 3 (1b)";
  s.description =
      "suspending-module grace ablation: oscillation vs grace band top, on/off";
  s.csv_header =
      "scenario,policy,grace,grace_max_s,suspends,suspends_per_day,suspended_pct,"
      "wakes,wake_p99_ms,kwh";
  s.params = {{"days", 2}, {"rate", 240}};
  s.sweep = fig3_sweep;
  s.reduce = [header = s.csv_header](const StudyParams& params,
                                     const std::vector<sc::RunResult>& results) {
    return fig3_reduce(header, params, results);
  };
  return s;
}

// --- fig4: idleness-model efficiency -------------------------------------------

/// The Table II panels: id -> trace recipe.
struct Fig4Panel {
  const char* id;
  sc::TraceSpec workload;
  bool focus_specificity;  ///< subfigure (h) is read on specificity
};

std::vector<Fig4Panel> fig4_panels(std::size_t years) {
  std::vector<Fig4Panel> panels;
  const auto push = [&](const char* id, sc::TraceKind kind, std::size_t variant,
                        bool focus_specificity) {
    sc::TraceSpec workload;
    workload.kind = kind;
    workload.years = years;
    workload.variant = variant;
    workload.seed = 42;
    panels.push_back({id, workload, focus_specificity});
  };
  push("a", sc::TraceKind::DailyBackup, 0, false);
  push("b", sc::TraceKind::ComicStrips, 0, false);
  const char* production[] = {"c", "d", "e", "f", "g"};
  for (std::size_t v = 0; v < 5; ++v) {
    push(production[v], sc::TraceKind::NutanixLike, v, false);
  }
  push("h", sc::TraceKind::LlmuConstant, 0, true);
  return panels;
}

ec::SweepSpec fig4_sweep(const StudyParams& params) {
  ec::SweepSpec sweep;
  sweep.name = "fig4-im-efficiency";
  for (const Fig4Panel& panel : fig4_panels(
           static_cast<std::size_t>(params.get_int("years")))) {
    sweep.scenarios.push_back(probe_scenario(std::string("fig4-") + panel.id,
                                             panel.workload, params.get_int("days")));
  }
  sweep.policies = {sc::Policy::DrowsyDc};
  sweep.replicates = 1;
  return sweep;
}

struct QuarterRow {
  double recall, precision, f_measure, specificity;
};

/// The Fig. 4 evaluation loop: predict each hour *before* observing it,
/// sliding-window confusion sampled at the end of each quarter.  Pure
/// function of (trace, learn_weights, years).
std::vector<QuarterRow> fig4_evaluate(const trace::ActivityTrace& tr,
                                      bool learn_weights, std::size_t years) {
  core::IdlenessModelConfig cfg;
  cfg.learn_weights = learn_weights;
  core::IdlenessModel model(cfg);
  metrics::WindowedConfusion window(30 * 24);  // 30-day sliding window
  std::vector<QuarterRow> rows;
  const std::size_t total = years * static_cast<std::size_t>(util::kHoursPerYear);
  const std::size_t quarter = static_cast<std::size_t>(util::kHoursPerYear) / 4;
  for (std::size_t h = 0; h < total; ++h) {
    const util::CalendarTime when =
        util::calendar_of(static_cast<util::SimTime>(h) * util::kMsPerHour);
    const bool predicted_idle = model.ip(when).predicts_idle();
    const double activity = tr.at_hour(h) > kern::kNoiseFloor ? tr.at_hour(h) : 0.0;
    const bool actually_idle = activity == 0.0;
    window.add(predicted_idle, actually_idle);
    model.observe_hour(when, activity);
    if ((h + 1) % quarter == 0) {
      const auto& c = window.counts();
      rows.push_back({c.recall(), c.precision(), c.f_measure(), c.specificity()});
    }
  }
  return rows;
}

std::string fig4_reduce(const std::string& header, const StudyParams& params,
                        const std::vector<sc::RunResult>& results) {
  const auto years = static_cast<std::size_t>(params.get_int("years"));
  const bool learn_weights = params.get("learn_weights") != 0.0;
  const std::vector<Fig4Panel> panels = fig4_panels(years);
  // Panels are independent; replay them across the pool (as the bench
  // always did) — results land in panel order regardless of schedule.
  std::vector<std::vector<QuarterRow>> quarters(panels.size());
  util::parallel_for(util::default_pool(), panels.size(), [&](std::size_t i) {
    quarters[i] = fig4_evaluate(sc::materialize(panels[i].workload, 0),
                                learn_weights, years);
  });
  std::string out = header + "\n";
  for (std::size_t i = 0; i < panels.size(); ++i) {
    const Fig4Panel& panel = panels[i];
    const sc::RunResult& r = results.at(i);
    for (std::size_t q = 0; q < quarters[i].size(); ++q) {
      const QuarterRow& row = quarters[i][q];
      out += std::string("fig4-") + panel.id + "," +
             sc::to_string(panel.workload.kind) + "," +
             (panel.focus_specificity ? "specificity" : "f_measure") + "," +
             std::to_string(q + 1) + "," + num(row.recall) + "," +
             num(row.precision) + "," + num(row.f_measure) + "," +
             num(row.specificity) + "," + num(100.0 * r.suspend_fraction) + "," +
             num(r.kwh) + "\n";
    }
  }
  return out;
}

Study fig4_study() {
  Study s;
  s.name = "fig4-im-efficiency";
  s.figure = "Figure 4, Tables II-III";
  s.description =
      "idleness-model efficiency per trace type: quarterly confusion metrics";
  s.csv_header =
      "panel,workload,focus,quarter,recall,precision,f_measure,specificity,"
      "sim_suspend_pct,sim_kwh";
  s.params = {{"years", 3}, {"learn_weights", 1}, {"days", 3}};
  s.sweep = fig4_sweep;
  s.reduce = [header = s.csv_header](const StudyParams& params,
                                     const std::vector<sc::RunResult>& results) {
    return fig4_reduce(header, params, results);
  };
  return s;
}

// --- table1: suspend fractions -------------------------------------------------

ec::SweepSpec table1_sweep(const StudyParams& params) {
  ec::SweepSpec sweep;
  sweep.name = "table1-suspend-fraction";
  sc::ScenarioSpec base = sc::ScenarioRegistry::builtin().at("paper-testbed");
  base.duration_days = params.get_int("days");
  sweep.scenarios.push_back(std::move(base));
  sweep.policies = {sc::Policy::DrowsyDc, sc::Policy::NeatS3};
  sweep.replicates = 1;
  return sweep;
}

std::string table1_reduce(const std::string& header, const StudyParams& params,
                          const std::vector<sc::RunResult>& results) {
  const ec::SweepSpec sweep = table1_sweep(params);
  const sc::ScenarioSpec& spec = sweep.scenarios.front();
  // The gain column is relative to the no-grace control arm.
  double neat_global = 0.0;
  for (const sc::RunResult& r : results) {
    if (r.policy == "neat+s3") neat_global = r.suspend_fraction;
  }
  std::string out = header + "\n";
  for (const sc::RunResult& r : results) {
    if (r.host_suspend_fraction.size() != static_cast<std::size_t>(spec.hosts)) {
      throw StudyError(
          "table1-suspend-fraction: result for " + r.policy + " carries " +
          std::to_string(r.host_suspend_fraction.size()) +
          " per-host fractions, expected " + std::to_string(spec.hosts));
    }
    out += r.policy;
    for (const double f : r.host_suspend_fraction) out += "," + num(100.0 * f);
    const double gain = neat_global > 0.0
                            ? 100.0 * (r.suspend_fraction - neat_global) / neat_global
                            : 0.0;
    out += "," + num(100.0 * r.suspend_fraction) + "," + num(gain) + "\n";
  }
  return out;
}

Study table1_study() {
  Study s;
  s.name = "table1-suspend-fraction";
  s.figure = "Table I";
  s.description =
      "fraction of time the testbed hosts spend suspended, Drowsy-DC vs Neat";
  s.csv_header =
      "policy,host_p2_pct,host_p3_pct,host_p4_pct,host_p5_pct,global_pct,"
      "gain_vs_neat_pct";
  s.params = {{"days", 7}};
  s.sweep = table1_sweep;
  s.reduce = [header = s.csv_header](const StudyParams& params,
                                     const std::vector<sc::RunResult>& results) {
    return table1_reduce(header, params, results);
  };
  return s;
}

// --- fig5: energy vs LLMI fraction ---------------------------------------------

constexpr int kFig5Vms = 48;
constexpr int kFig5Phases = 6;
constexpr int kFig5LlmiPct[] = {0, 25, 50, 75, 100};
constexpr sc::Policy kFig5Policies[] = {sc::Policy::DrowsyDc, sc::Policy::NeatVanilla,
                                        sc::Policy::NeatS3, sc::Policy::Oasis};

/// The `paper-sim-phases` registry scenario with its VM mix re-balanced to
/// `llmi_pct` percent LLMI and the §VI-B pretraining horizon restored.
sc::ScenarioSpec fig5_scenario(int llmi_pct, const StudyParams& params) {
  sc::ScenarioSpec spec = sc::ScenarioRegistry::builtin().at("paper-sim-phases");
  spec.name = "fig5-llmi" + std::to_string(llmi_pct);
  spec.duration_days = params.get_int("days");
  spec.pretrain_days = 60;  // "effectiveness increases with time" (§VI-A-3)
  spec.opportunistic_step = params.get("opportunistic_step") != 0.0;
  const int llmi_count = kFig5Vms * llmi_pct / 100;
  spec.vms.clear();
  for (int phase = 0; phase < kFig5Phases; ++phase) {
    // LLMI VM i takes phase i % kFig5Phases; each phase is one VM group.
    const int count = (llmi_count + kFig5Phases - 1 - phase) / kFig5Phases;
    if (count == 0) continue;
    const int hour = phase * (util::kHoursPerDay / kFig5Phases);
    spec.vms.push_back({.name_prefix = "llmi-p" + std::to_string(hour) + "-",
                        .count = count,
                        .workload = {.kind = sc::TraceKind::PhaseWindow,
                                     .hour = hour,
                                     .span_hours = 4,
                                     .seed = 1000u + static_cast<std::uint64_t>(phase)}});
  }
  if (llmi_count < kFig5Vms) {
    spec.vms.push_back({.name_prefix = "llmu",
                        .count = kFig5Vms - llmi_count,
                        .workload = {.kind = sc::TraceKind::GoogleLlmu, .seed = 2000}});
  }
  return spec;
}

ec::SweepSpec fig5_sweep(const StudyParams& params) {
  ec::SweepSpec sweep;
  sweep.name = "fig5-llmi-sweep";
  for (const int pct : kFig5LlmiPct) sweep.scenarios.push_back(fig5_scenario(pct, params));
  sweep.policies.assign(std::begin(kFig5Policies), std::end(kFig5Policies));
  sweep.replicates = 1;
  return sweep;
}

/// Percent of `baseline`'s energy that `kwh` saves.
double saving_pct(double kwh, double baseline) {
  return baseline > 0.0 ? 100.0 * (baseline - kwh) / baseline : 0.0;
}

std::string fig5_reduce(const std::string& header, const StudyParams& params,
                        const std::vector<sc::RunResult>& results) {
  static_cast<void>(params);
  constexpr std::size_t arms = std::size(kFig5Policies);
  std::string out = header + "\n";
  for (std::size_t p = 0; p < std::size(kFig5LlmiPct); ++p) {
    // Canonical order is scenario-major: one row's arms are contiguous,
    // in kFig5Policies order (drowsy-dc, neat, neat+s3, oasis).
    const sc::RunResult* row = &results.at(p * arms);
    out += std::to_string(kFig5LlmiPct[p]);
    for (std::size_t a = 0; a < arms; ++a) out += "," + num(row[a].kwh);
    out += "," + num(saving_pct(row[0].kwh, row[1].kwh)) + "," +
           num(saving_pct(row[0].kwh, row[3].kwh)) + "\n";
  }
  return out;
}

Study fig5_study() {
  Study s;
  s.name = "fig5-llmi-sweep";
  s.figure = "Figure 5";
  s.description = "simulation study: fleet energy per policy vs the LLMI fraction";
  s.csv_header =
      "llmi_pct,drowsy_dc_kwh,neat_kwh,neat_s3_kwh,oasis_kwh,gain_vs_neat_pct,"
      "gain_vs_oasis_pct";
  s.params = {{"days", 14}, {"opportunistic_step", 1}};
  s.sweep = fig5_sweep;
  s.reduce = [header = s.csv_header](const StudyParams& params,
                                     const std::vector<sc::RunResult>& results) {
    return fig5_reduce(header, params, results);
  };
  return s;
}

// --- energy: §VI-A-3 energy, SLA and quick resume ------------------------------

constexpr sc::Policy kEnergyPolicies[] = {sc::Policy::DrowsyDc, sc::Policy::NeatS3,
                                          sc::Policy::NeatNoSuspend};

ec::SweepSpec energy_sweep(const StudyParams& params) {
  ec::SweepSpec sweep;
  sweep.name = "energy-sla-testbed";
  sc::ScenarioSpec quick = sc::ScenarioRegistry::builtin().at("paper-testbed");
  quick.duration_days = params.get_int("days");
  sc::ScenarioSpec naive = quick;
  naive.name = "paper-testbed-naive-resume";
  naive.quick_resume = false;
  sweep.scenarios = {std::move(quick), std::move(naive)};
  sweep.policies.assign(std::begin(kEnergyPolicies), std::end(kEnergyPolicies));
  sweep.replicates = 1;
  return sweep;
}

std::string energy_reduce(const std::string& header, const StudyParams& params,
                          const std::vector<sc::RunResult>& results) {
  const ec::SweepSpec sweep = energy_sweep(params);
  constexpr std::size_t arms = std::size(kEnergyPolicies);
  std::string out = header + "\n";
  for (std::size_t s = 0; s < sweep.scenarios.size(); ++s) {
    // Savings are against the same resume mode's baseline arms, in
    // kEnergyPolicies order: row[1] is neat+s3, row[2] neat-nosleep.
    const sc::RunResult* row = &results.at(s * arms);
    const char* resume = sweep.scenarios[s].quick_resume ? "quick" : "naive";
    for (std::size_t a = 0; a < arms; ++a) {
      const sc::RunResult& r = row[a];
      out += r.scenario + "," + resume + "," + r.policy + "," + num(r.kwh) + "," +
             num(100.0 * r.sla_attainment) + "," + num(r.wake_latency_p99_ms) + "," +
             std::to_string(r.requests) + "," + std::to_string(r.wakes) + "," +
             std::to_string(r.migrations) + "," + num(saving_pct(r.kwh, row[2].kwh)) +
             "," + num(saving_pct(r.kwh, row[1].kwh)) + "\n";
    }
  }
  return out;
}

Study energy_study() {
  Study s;
  s.name = "energy-sla-testbed";
  s.figure = "Section VI-A-3";
  s.description = "testbed energy and SLA per policy, with quick resume on and off";
  s.csv_header =
      "scenario,resume,policy,kwh,sla_pct,wake_p99_ms,requests,wakes,migrations,"
      "saving_vs_nosleep_pct,saving_vs_neat_s3_pct";
  s.params = {{"days", 7}};
  s.sweep = energy_sweep;
  s.reduce = [header = s.csv_header](const StudyParams& params,
                                     const std::vector<sc::RunResult>& results) {
    return energy_reduce(header, params, results);
  };
  return s;
}

}  // namespace

const StudyRegistry& StudyRegistry::builtin() {
  static const StudyRegistry registry = [] {
    StudyRegistry r;
    r.add(fig1_study());
    r.add(fig3_study());
    r.add(fig4_study());
    r.add(table1_study());
    r.add(fig5_study());
    r.add(energy_study());
    return r;
  }();
  return registry;
}

}  // namespace drowsy::study

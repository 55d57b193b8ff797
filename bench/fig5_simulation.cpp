// §VI-B / "Figure 5" [reconstructed] — evaluation with simulations.
//
// Page 833 of the available paper text is missing.  The surviving preamble
// pins the setup (CloudSim-style simulation; Google-trace-like LLMU VMs,
// production-like LLMI traces) and the conclusion pins the outcomes:
// Drowsy-DC "may improve up to 82% upon vanilla OpenStack Neat" and
// "outperforms Oasis ... by an average of 81%".  We reconstruct the study
// as an energy sweep over the LLMI fraction of the VM population.
//
// The workload is the registry's "paper-sim-phases" scenario (daily
// activity windows at six different phases, like services serving
// different time zones), re-mixed per sweep point: this driver only owns
// the LLMI-fraction axis and the reporting; cluster construction, policy
// wiring and execution live in src/scenario.  Note one deviation from the
// pre-scenario driver: VM groups are contiguous by phase (the declarative
// mix has no interleaving), so round-robin initial placement starts each
// host with a different phase blend than the old phase = i % 6 ordering —
// the sweep's *relative* policy gaps, not exact kWh, are the anchor.
//
//   --ablate   also run Drowsy-DC without the opportunistic 7-sigma step
#include <cstdio>
#include <cstring>
#include <vector>

#include "scenario/registry.hpp"

namespace sc = drowsy::scenario;

namespace {

constexpr int kVms = 48;
constexpr int kPhases = 6;
constexpr int kDays = 14;
constexpr int kPretrainDays = 60;  // "effectiveness increases with time" (§VI-A-3)

enum class Algo { Drowsy, DrowsyNoOpportunistic, NeatVanilla, NeatS3, Oasis };

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::Drowsy: return "drowsy-dc";
    case Algo::DrowsyNoOpportunistic: return "drowsy-no7s";
    case Algo::NeatVanilla: return "neat";
    case Algo::NeatS3: return "neat+s3";
    case Algo::Oasis: return "oasis";
  }
  return "?";
}

sc::Policy algo_policy(Algo a) {
  switch (a) {
    case Algo::Drowsy:
    case Algo::DrowsyNoOpportunistic: return sc::Policy::DrowsyDc;
    case Algo::NeatVanilla: return sc::Policy::NeatVanilla;
    case Algo::NeatS3: return sc::Policy::NeatS3;
    case Algo::Oasis: return sc::Policy::Oasis;
  }
  return sc::Policy::DrowsyDc;
}

/// The registry scenario with its VM mix re-balanced to `llmi_fraction`
/// and the full §VI-B timeline restored.
sc::ScenarioSpec sweep_spec(double llmi_fraction) {
  sc::ScenarioSpec spec = sc::ScenarioRegistry::builtin().at("paper-sim-phases");
  spec.duration_days = kDays;
  spec.pretrain_days = kPretrainDays;
  const int llmi_count = static_cast<int>(llmi_fraction * kVms + 0.5);
  spec.vms.clear();
  for (int phase = 0; phase < kPhases; ++phase) {
    // VM i < llmi_count takes phase i % kPhases, as in the paper setup.
    const int count = (llmi_count + kPhases - 1 - phase) / kPhases;
    if (count == 0) continue;
    spec.vms.push_back({.name_prefix = "llmi-p" + std::to_string(phase * 4) + "-",
                        .count = count,
                        .workload = {.kind = sc::TraceKind::PhaseWindow,
                                     .hour = phase * (24 / kPhases),
                                     .span_hours = 4,
                                     .seed = 1000u + static_cast<std::uint64_t>(phase)}});
  }
  if (llmi_count < kVms) {
    spec.vms.push_back({.name_prefix = "llmu",
                        .count = kVms - llmi_count,
                        .workload = {.kind = sc::TraceKind::GoogleLlmu, .seed = 2000}});
  }
  return spec;
}

double run_once(Algo algo, double llmi_fraction) {
  sc::ScenarioSpec spec = sweep_spec(llmi_fraction);
  spec.opportunistic_step = algo != Algo::DrowsyNoOpportunistic;
  return sc::run_one(spec, algo_policy(algo), spec.seed).kwh;
}

}  // namespace

int main(int argc, char** argv) {
  const bool ablate = argc > 1 && std::strcmp(argv[1], "--ablate") == 0;
  std::printf(
      "== Figure 5 [reconstructed]: simulation study — energy vs LLMI fraction ==\n");
  const sc::ScenarioSpec base = sweep_spec(0.0);
  std::printf(
      "   %d hosts (%d slots each), %d VMs, %d days; LLMU = Google-like,\n"
      "   LLMI = daily 4-hour windows at %d phases (scenario: paper-sim-phases)\n\n",
      base.hosts, base.host_template.max_vms, kVms, kDays, kPhases);

  std::vector<Algo> algos = {Algo::Drowsy, Algo::NeatVanilla, Algo::NeatS3, Algo::Oasis};
  if (ablate) algos.push_back(Algo::DrowsyNoOpportunistic);

  std::printf("%-10s", "LLMI frac");
  for (Algo a : algos) std::printf("  %12s", algo_name(a));
  std::printf("   vs-neat  vs-oasis\n");

  double sum_gain_oasis = 0.0, max_gain_neat = 0.0;
  int points = 0;
  for (const double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    std::printf("%-10.0f", 100.0 * frac);
    std::vector<double> kwh;
    for (Algo a : algos) {
      kwh.push_back(run_once(a, frac));
      std::printf("  %9.1f kWh", kwh.back());
    }
    const double gain_neat = 100.0 * (kwh[1] - kwh[0]) / kwh[1];
    const double gain_oasis = 100.0 * (kwh[3] - kwh[0]) / kwh[3];
    std::printf("   %+6.0f%%  %+7.0f%%\n", gain_neat, gain_oasis);
    sum_gain_oasis += gain_oasis;
    max_gain_neat = std::max(max_gain_neat, gain_neat);
    ++points;
  }
  std::printf("\nmax improvement over Neat:    %+.0f%%  (paper: up to 82%%)\n",
              max_gain_neat);
  std::printf("mean improvement over Oasis:  %+.0f%%  (paper: average 81%%;\n",
              sum_gain_oasis / points);
  std::printf("  our Oasis baseline idealizes away partial-migration overheads —\n");
  std::printf("  an unmeasured claim, open as ROADMAP.md item 3)\n");
  return 0;
}

// All Drowsy-DC tunables, with the paper's published values as defaults, and
// the fixed thresholds that no configuration varies.  Constants of the
// layers below live with their users: the noise floor and the quanta per
// hour in kern/guest_os.hpp, the VM taxonomy's cutoffs in trace/trace.cpp, the
// Oasis matcher's window and cutoff in baselines/oasis.hpp.  σ is
// IdlenessModelConfig::sigma; everything that scales by it reads it from
// the ModelBuilder (ModelBuilder::config()).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/sim_time.hpp"

namespace drowsy::core {

/// Beloglazov's Neat thresholds on host CPU utilization, shared by Neat
/// and Drowsy-DC's consolidation: above the first a host sheds VMs, below
/// the second it tries to evacuate.
inline constexpr double kOverloadUtilization = 0.9;
inline constexpr double kUnderloadUtilization = 0.5;

/// Raw-IP magnitude, in multiples of σ, that marks a determined host.  SI
/// scores move by ~σ per observation (eq. 3), so 7σ is "a week of constant
/// maximum activity".  It is both the opportunistic step's too-wide VM-IP
/// range ("we empirically set the threshold of a too wide IP range to
/// 7σ", §III-D) and the grace time's fully-determined reference (§IV).
inline constexpr double kDeterminedIpSigmas = 7.0;

/// Tolerance when sorting by IP distance ("so close distances are
/// considered equal"), in multiples of σ.  Well below 1: it only needs to
/// absorb numerical noise, and VMs with genuinely matching idleness models
/// (paper's V3/V4) land in the same bucket anyway.
inline constexpr double kIpDistanceToleranceSigmas = 0.01;

/// How far ahead of a scheduled waking date the waking module sends the
/// WoL ("this request is sent ahead of time in order to take into account
/// the waking latency", §V-A).  Must cover resume latency.
inline constexpr util::SimTime kWakeLead = util::seconds(3);

/// Idleness-model parameters (paper §III-C).
struct IdlenessModelConfig {
  /// Activity scaling factor σ = 1/(365×24) (eq. 3).
  double sigma = 1.0 / (365.0 * 24.0);
  /// Decrease speed of the damping coefficient u (eq. 4); "empirically set
  /// to 0.7".
  double alpha = 0.7;
  /// Extreme-value threshold of u (eq. 4); "set to 0.5 (halfway between
  /// undetermined and determined)".
  double beta = 0.5;
  /// Damping of the line-searched steepest-descent step for the weight
  /// update (eq. 8); 1.0 jumps straight onto the wᵀ·SI = IP' hyperplane.
  double weight_learning_rate = 0.3;
  /// At most this many descent iterations per hourly weight correction;
  /// "its precision can be set to not incur any overhead".  The descent
  /// ends sooner when a step leaves the weights' bits unchanged.
  std::size_t weight_descent_steps = 4;
  /// Disable weight learning (ablation: fixed uniform weights).
  bool learn_weights = true;
};

/// When a suspending module may suspend its host.  The policies use
/// these four rules (scenario.cpp wires one per policy, §VI-A-1).
enum class SuspendRule : std::uint8_t {
  /// Never suspend (the neat-nosleep baseline).
  Never,
  /// Vanilla Neat: only hosts with no resident VMs (Neat switches *empty*
  /// hosts to a low-power state; suspending non-empty hosts is
  /// Drowsy-DC's contribution).
  EmptyHostsOnly,
  /// Any idle host, re-suspended right after a resume: Neat+S3 "is based
  /// on the exact same algorithm as Drowsy-DC, the grace time excepted".
  AnyIdleHost,
  /// Drowsy-DC: any idle host, after the post-resume grace time (§IV).
  IdleHostWithGrace,
};

/// Suspending-module parameters (paper §IV).
struct SuspendConfig {
  /// How often the module re-evaluates its host.
  util::SimTime check_interval = util::seconds(30);
  /// Grace-time band: "empirically set … between 5s and 2min,
  /// exponentially increasing as the IP decreases".
  util::SimTime grace_min = util::seconds(5);
  util::SimTime grace_max = util::minutes(2);
  SuspendRule rule = SuspendRule::IdleHostWithGrace;
};

/// Idleness-aware placement / consolidation parameters (paper §III-D).
struct PlacementConfig {
  /// Hosts below this CPU utilization try to evacuate (tests lower it to
  /// isolate the other steps).
  double underload_utilization = kUnderloadUtilization;
  /// Enable the opportunistic 7σ step (ablation knob).
  bool opportunistic_step = true;
};

/// Everything together.
struct DrowsyConfig {
  IdlenessModelConfig model;
  SuspendConfig suspend;
  PlacementConfig placement;
};

}  // namespace drowsy::core

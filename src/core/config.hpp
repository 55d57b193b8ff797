// All Drowsy-DC tunables, with the paper's published values as defaults, and
// the fixed thresholds that no configuration varies.
#pragma once

#include <cstddef>

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

/// Suspending-module parameters (paper §IV).
struct SuspendConfig {
  /// How often the module re-evaluates its host.
  util::SimTime check_interval = util::seconds(30);
  /// Grace-time band: "empirically set … between 5s and 2min,
  /// exponentially increasing as the IP decreases".
  util::SimTime grace_min = util::seconds(5);
  util::SimTime grace_max = util::minutes(2);
  /// Disable the grace time (the Neat+S3 baseline "is based on the exact
  /// same algorithm as Drowsy-DC, the grace time excepted", §VI-A-1;
  /// also the oscillation ablation).
  bool use_grace_time = true;
  /// Master switch: when false the host is never suspended.
  bool enabled = true;
  /// Vanilla-Neat behaviour: only suspend hosts with no resident VMs
  /// (Neat switches *empty* hosts to a low-power state; suspending
  /// non-empty hosts is Drowsy-DC's contribution).
  bool only_empty_hosts = false;
};

/// Waking-module parameters (paper §V).
struct WakingConfig {
  /// How far ahead of a scheduled waking date the WoL is sent ("this
  /// request is sent ahead of time in order to take into account the
  /// waking latency").  Must cover resume latency.
  util::SimTime wake_lead = util::seconds(3);
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
  WakingConfig waking;
  PlacementConfig placement;
};

}  // namespace drowsy::core

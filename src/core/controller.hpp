// End-to-end Drowsy-DC deployment over the simulated data center.
//
// The controller wires together everything the paper's architecture (§II)
// describes: the request fabric and SDN switch, a mirrored pair of waking
// modules on the switch, one suspending module per managed host, the
// per-VM idleness-model builder and a consolidation policy (Drowsy-DC's
// own, or a baseline from src/baselines).  It then drives the simulation
// hour by hour:
//
//   hour start:  reflect traces into guest run-states, schedule requests,
//                arm the guest-timer pump;
//   during hour: suspend checks, wakes, timer firings on the event queue;
//   hour end:    account quanta ledgers, update idleness models (in arms
//                that read them), run the consolidation policy for the
//                next hour.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/consolidation.hpp"
#include "core/model_builder.hpp"
#include "core/suspend_module.hpp"
#include "core/waking_module.hpp"
#include "net/heartbeat.hpp"
#include "sim/cluster.hpp"
#include "sim/requests.hpp"

namespace drowsy::core {

/// Deployment options.
struct ControllerOptions {
  DrowsyConfig drowsy;
  sim::RequestConfig requests;
  bool quick_resume = true;       ///< the paper's optimized ≈800 ms resume
  bool relocate_all = false;      ///< §VI-A-1 evaluation mode
};

/// The deployment.
class Controller {
 public:
  Controller(sim::Cluster& cluster, net::SdnSwitch& sw, ControllerOptions options = {});

  /// Use an external consolidation policy (baselines); nullptr restores
  /// Drowsy-DC's own IdlenessConsolidator.
  void set_policy(ConsolidationPolicy* policy);

  [[nodiscard]] ModelBuilder& models() { return models_; }
  [[nodiscard]] IdlenessConsolidator& drowsy_policy() { return *drowsy_policy_; }
  [[nodiscard]] sim::RequestFabric& fabric() { return fabric_; }
  [[nodiscard]] WakingModule& waking_primary() { return *waking_primary_; }
  /// The mirrored standby install() always deploys (nullptr before it).
  [[nodiscard]] WakingModule* waking_standby() { return waking_standby_.get(); }
  [[nodiscard]] SuspendModule& suspend_module(sim::HostId id) {
    return *suspend_modules_[id];
  }

  /// Crash simulation: stop the primary waking module's heartbeats so the
  /// standby's monitor detects the failure and promotes itself.  Call
  /// after install().
  void waking_pair_kill_primary() { waking_pair_->kill_primary(); }
  [[nodiscard]] const ControllerOptions& options() const { return options_; }

  /// Wire ports, hooks, analyzers and suspend daemons.  Call once, after
  /// topology setup and initial placement.
  void install();

  /// Initial placement of every unplaced VM through the Nova-style
  /// weigher (falls back to first-fit while models are cold).
  void place_all_unplaced();

  /// True when something reads the idleness models: Drowsy-DC's own
  /// IdlenessConsolidator places by them and the grace time of
  /// SuspendRule::IdleHostWithGrace is sized by them (drowsy-netbatch's
  /// pre-wake predictor rides on both).  The baselines — Neat+S3 is
  /// Drowsy-DC "the grace time excepted" (§VI-A-1) — read neither, so
  /// pretraining and hourly learning skip them.
  [[nodiscard]] bool reads_models() const {
    return policy_ == drowsy_policy_.get() ||
           options_.drowsy.suspend.rule == SuspendRule::IdleHostWithGrace;
  }

  /// Feed `hours` hours of every VM's trace into the models without
  /// simulating (model warm-up, mirrors the paper's pre-existing history).
  /// A no-op unless reads_models().
  void pretrain_models(std::int64_t hours);

  /// Drive the simulation for `hours` hours starting at the queue's
  /// current hour.  `on_hour_end(h)` runs after hour `h` is fully
  /// processed (accounting, model update when reads_models(),
  /// consolidation done).
  void run_hours(std::int64_t hours,
                 const std::function<void(std::int64_t)>& on_hour_end = {});

 private:
  void refresh_runstates(std::int64_t hour);
  void pump_guest_timers(sim::HostId id, std::int64_t hour);

  sim::Cluster& cluster_;
  net::SdnSwitch& switch_;
  ControllerOptions options_;
  ModelBuilder models_;
  std::unique_ptr<IdlenessConsolidator> drowsy_policy_;
  ConsolidationPolicy* policy_;  // points at drowsy_policy_ or an external one
  sim::RequestFabric fabric_;
  std::unique_ptr<WakingModule> waking_primary_;
  std::unique_ptr<WakingModule> waking_standby_;
  std::unique_ptr<net::MirroredPair> waking_pair_;
  std::vector<std::unique_ptr<SuspendModule>> suspend_modules_;
  bool installed_ = false;
};

}  // namespace drowsy::core

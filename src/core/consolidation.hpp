// Idleness-aware VM placement and consolidation — paper §III-D.
//
// ConsolidationPolicy is the pluggable interface the controller drives
// once per hour (Drowsy-DC here, the Neat and Oasis baselines in
// src/baselines).  IdlenessConsolidator implements the paper's algorithm:
//
//  * initial placement: a Nova-style weigher favoring "hosts with
//    best-matching idleness probability";
//  * consolidation-time migration: Neat's steps (3) VM selection and
//    (4) VM placement adjusted to prefer large IP distance from the source
//    host and small IP distance to the destination host;
//  * the opportunistic step: hosts whose VM-IP range exceeds 7σ shed their
//    most extreme VMs until the range closes;
//  * relocate-all mode: the §VI-A-1 evaluation methodology where all VMs
//    are periodically re-placed by IP matching.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/model_builder.hpp"
#include "sim/cluster.hpp"

namespace drowsy::core {

/// A policy invoked once per simulated hour to rearrange VMs.
class ConsolidationPolicy {
 public:
  virtual ~ConsolidationPolicy() = default;

  /// Make placement decisions for the upcoming hour `next_hour` (absolute
  /// hour index).  Called after the models observed hour `next_hour - 1`.
  virtual void run_hour(std::int64_t next_hour) = 0;
};

/// Drowsy-DC's idleness-aware consolidation.
class IdlenessConsolidator final : public ConsolidationPolicy {
 public:
  IdlenessConsolidator(sim::Cluster& cluster, ModelBuilder& models,
                       PlacementConfig config = {});

  /// Nova-weigher initial placement: among hosts that can take `vm`, pick
  /// the one with the IP closest to the VM's (ties prefer raising the
  /// host's IP).  Returns nullopt when nothing fits.
  [[nodiscard]] std::optional<sim::HostId> initial_placement(
      const sim::Vm& vm, const util::CalendarTime& c) const;

  /// One consolidation round: overloaded hosts, underloaded hosts, then
  /// the opportunistic IP-range step.
  void run_hour(std::int64_t next_hour) override;

  /// §VI-A-1 evaluation mode: re-place all VMs by IP matching (VMs sorted
  /// by IP, packed host by host; sticky within the distance tolerance so a
  /// stable pattern does not churn migrations).
  void relocate_all(std::int64_t next_hour);

  /// Enable relocate-all mode inside run_hour (Controller sets it from
  /// ControllerOptions::relocate_all).
  void set_relocate_all_mode(bool enabled) { relocate_all_mode_ = enabled; }

  [[nodiscard]] const PlacementConfig& config() const { return config_; }

 private:
  struct HostView {
    sim::Host* host;
    double ip;
  };

  /// Candidate destinations for `vm`, best (closest IP) first.
  [[nodiscard]] std::vector<HostView> ranked_destinations(
      const sim::Vm& vm, const util::CalendarTime& c,
      const sim::Host* exclude) const;

  void handle_overloaded(std::int64_t next_hour, const util::CalendarTime& c);
  void handle_underloaded(std::int64_t next_hour, const util::CalendarTime& c);
  void opportunistic_step(const util::CalendarTime& c);

  sim::Cluster& cluster_;
  ModelBuilder& models_;
  PlacementConfig config_;
  bool relocate_all_mode_ = false;
};

}  // namespace drowsy::core

// The named scenario catalogue.
//
// ScenarioRegistry::builtin() holds the paper's evaluation workloads
// (§VI-A testbed, the Fig. 4 trace catalogue as a fleet, the Fig. 5
// phase-structured simulation) plus new workload shapes the ROADMAP's
// scenario-diversity goal asks for (diurnal SaaS, nightly backups,
// seasonal e-commerce, flash crowds, spot churn, an always-idle dev
// fleet, and two SLA-pressure stressors that make the waking module the
// deciding factor).  Benches and examples look scenarios up by name
// instead of hand-wiring clusters.
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace drowsy::scenario {

/// A set of uniquely named, validated scenarios.
class ScenarioRegistry {
 public:
  ScenarioRegistry() = default;

  /// The built-in catalogue (constructed once, immutable).
  [[nodiscard]] static const ScenarioRegistry& builtin();

  /// Register a scenario.  Throws std::invalid_argument when the spec
  /// fails validate() or the name is already taken.
  void add(ScenarioSpec spec);

  /// Lookup by name; nullptr when absent.
  [[nodiscard]] const ScenarioSpec* find(const std::string& name) const;

  /// Lookup by name; throws std::out_of_range when absent.
  [[nodiscard]] const ScenarioSpec& at(const std::string& name) const;

  [[nodiscard]] const std::vector<ScenarioSpec>& all() const { return scenarios_; }
  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

 private:
  std::vector<ScenarioSpec> scenarios_;
};

}  // namespace drowsy::scenario

// Hourly VM activity traces.
//
// Every workload in the reproduction is an ActivityTrace: one activity
// level in [0, 1] per hour, matching the paper's definition ("the ratio of
// CPU quanta scheduled for the VM, over the total possible quanta during
// an hour", §III-C).  The paper classifies VMs from their traces into
// SLMU / LLMU / LLMI (§I, after Zhang et al.).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/sim_time.hpp"

namespace drowsy::trace {

/// Classification of a VM by its activity pattern (paper §I / §III-A).
enum class VmClass {
  Slmu,  ///< short-lived mostly-used (e.g. MapReduce tasks)
  Llmu,  ///< long-lived mostly-used (e.g. popular web services)
  Llmi,  ///< long-lived mostly-idle (e.g. seasonal web services)
};

[[nodiscard]] const char* to_string(VmClass c);

/// One VM's hourly activity series.
class ActivityTrace {
 public:
  ActivityTrace() = default;
  explicit ActivityTrace(std::vector<double> hourly, std::string name = {});

  /// Activity level for absolute hour index `h` (0-based from trace start).
  /// Reads past the end wrap around (periodic extension), so short traces
  /// can drive long simulations.
  [[nodiscard]] double at_hour(std::size_t h) const;

  /// Raw series access.
  [[nodiscard]] const std::vector<double>& hours() const { return hours_; }
  [[nodiscard]] std::size_t size() const { return hours_.size(); }
  [[nodiscard]] bool empty() const { return hours_.empty(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Fraction of hours with activity below the noise floor
  /// (kern::kNoiseFloor).
  [[nodiscard]] double idle_fraction() const;

  /// Mean activity over the whole trace.
  [[nodiscard]] double mean_activity() const;

  /// Classify per the paper's taxonomy: short-lived if under a week;
  /// otherwise LLMI when at least half the hours are idle, else LLMU.
  [[nodiscard]] VmClass classify() const;

 private:
  std::vector<double> hours_;
  std::string name_;
};

}  // namespace drowsy::trace

// Process table and blacklist.
//
// The suspending module (paper §IV) decides host idleness from process
// state, with two corrections: a *blacklist* discards processes that are
// running but irrelevant (monitoring agents, kernel watchdogs — the
// paper's "false negatives"), and processes blocked on I/O or with open
// sessions keep the host awake (the paper's "false positives").
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace drowsy::kern {

using Pid = std::int32_t;

/// Scheduler-visible run state of a process.
enum class ProcState {
  Running,    ///< on CPU or runnable
  Sleeping,   ///< voluntarily sleeping (usually with an armed timer)
  BlockedIo,  ///< waiting on I/O — host must not be suspended (paper §IV)
  Zombie,     ///< exited, awaiting reap
};

[[nodiscard]] const char* to_string(ProcState s);

/// One process of a guest OS.
struct Process {
  Pid pid = 0;
  std::string name;
  ProcState state = ProcState::Sleeping;
  bool kernel_thread = false;
  /// Open network sessions (SSH, TCP) owned by this process; a non-zero
  /// count marks the service as non-idle even when the process sleeps.
  int open_sessions = 0;
};

/// Name-based blacklist of processes to ignore during idleness checks and
/// timer filtering.  Matches exact names and prefixes (e.g. "kworker").
class Blacklist {
 public:
  void add_exact(std::string name);
  void add_prefix(std::string prefix);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t rule_count() const {
    return exact_.size() + prefixes_.size();
  }

  /// The default rules every managed host ships with: kernel threads and
  /// well-known monitoring daemons.
  [[nodiscard]] static Blacklist standard();

 private:
  std::vector<std::string> exact_;
  std::vector<std::string> prefixes_;
};

/// Pid-indexed process table.
class ProcessTable {
 public:
  /// Spawn a process; returns its pid.
  Pid spawn(std::string name, ProcState initial = ProcState::Sleeping,
            bool kernel_thread = false);

  /// Remove a process.  Returns false if the pid is unknown.
  bool reap(Pid pid);

  [[nodiscard]] Process* find(Pid pid);
  [[nodiscard]] const Process* find(Pid pid) const;

  /// Set the run state of a process; asserts the pid exists.
  void set_state(Pid pid, ProcState state);

  [[nodiscard]] std::size_t size() const { return procs_.size(); }

  /// Visit every process in pid order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const auto& [pid, p] : procs_) visit(p);
  }

  /// Count processes for which `keep` returns true.
  template <typename Keep>
  [[nodiscard]] std::size_t count_if(Keep&& keep) const {
    std::size_t n = 0;
    for (const auto& [pid, p] : procs_) {
      if (keep(p)) ++n;
    }
    return n;
  }

  /// True when `match` holds for some process; stops at the first one.
  template <typename Match>
  [[nodiscard]] bool any_of(Match&& match) const {
    for (const auto& [pid, p] : procs_) {
      if (match(p)) return true;
    }
    return false;
  }

 private:
  std::map<Pid, Process> procs_;
  Pid next_pid_ = 1;
};

}  // namespace drowsy::kern

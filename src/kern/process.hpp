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
#include <functional>
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
///
/// `name` is fixed at spawn: the blacklist verdict below is derived from
/// it once and reused, so renaming a live process would leave a stale
/// verdict behind.
struct Process {
  Pid pid = 0;  ///< 0 only in a reaped ProcessTable slot
  std::string name;
  ProcState state = ProcState::Sleeping;
  bool kernel_thread = false;
  /// Open network sessions (SSH, TCP) owned by this process; a non-zero
  /// count marks the service as non-idle even when the process sleeps.
  int open_sessions = 0;

  /// Memo of Blacklist::contains(*this): the identity of the blacklist
  /// that last judged this process (0: none yet) and its verdict.
  mutable std::uint64_t verdict_of = 0;
  mutable bool blacklisted = false;
};

/// Name-based blacklist of processes to ignore during idleness checks and
/// timer filtering.  Matches exact names and prefixes (e.g. "kworker").
///
/// Every rule set carries an identity drawn from a process-wide counter:
/// a new or changed blacklist gets a fresh one, a copy shares it (same
/// rules, same verdicts).  Processes memoize their verdict under it, so a
/// repeated check costs one integer compare instead of string matching.
class Blacklist {
 public:
  Blacklist() : id_(next_id()) {}
  /// Copy-only: a move would empty the rules but keep the identity, so
  /// the moved-from blacklist would answer with verdicts it no longer
  /// holds.  Declaring the copies makes a move copy instead.
  Blacklist(const Blacklist&) = default;
  Blacklist& operator=(const Blacklist&) = default;

  void add_exact(std::string name);
  void add_prefix(std::string prefix);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t rule_count() const {
    return exact_.size() + prefixes_.size();
  }

  /// contains(p.name), computed once per (process, rule set) and memoized
  /// in the process.
  [[nodiscard]] bool contains(const Process& p) const {
    if (p.verdict_of != id_) {
      p.blacklisted = contains(p.name);
      p.verdict_of = id_;
    }
    return p.blacklisted;
  }

  /// The default rules every managed host ships with: kernel threads and
  /// well-known monitoring daemons.
  [[nodiscard]] static Blacklist standard();

 private:
  static std::uint64_t next_id();

  std::vector<std::string> exact_;
  std::vector<std::string> prefixes_;
  std::uint64_t id_;
};

/// Pid-indexed process table.  Pids are dense, start at 1 and are never
/// reused, so process `pid` lives in slot `pid - 1` of a flat vector; a
/// reaped slot stays behind as a tombstone (pid 0).  Lookup is O(1) and
/// the visitors walk the slots, i.e. in pid order.
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

  /// Open one more session on a process; asserts the pid exists.
  void open_session(Pid pid);

  /// Install the table's one change observer (an empty function removes
  /// it).  It runs after every change that can turn an "a relevant
  /// process runs" verdict into another one: a process leaves Running
  /// (set_state, reap), a process enters BlockedIo (set_state, spawn), or
  /// a session opens.  Changes that only add running work never call it.
  void set_on_change(std::function<void()> hook) { on_change_ = std::move(hook); }

  [[nodiscard]] std::size_t size() const { return live_; }

  /// Visit every process in pid order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const Process& p : slots_) {
      if (p.pid != 0) visit(p);
    }
  }

  /// Count processes for which `keep` returns true.
  template <typename Keep>
  [[nodiscard]] std::size_t count_if(Keep&& keep) const {
    std::size_t n = 0;
    for (const Process& p : slots_) {
      if (p.pid != 0 && keep(p)) ++n;
    }
    return n;
  }

  /// True when `match` holds for some process; stops at the first one.
  template <typename Match>
  [[nodiscard]] bool any_of(Match&& match) const {
    for (const Process& p : slots_) {
      if (p.pid != 0 && match(p)) return true;
    }
    return false;
  }

 private:
  void changed() const {
    if (on_change_) on_change_();
  }

  std::vector<Process> slots_;  ///< slot i holds pid i + 1, or a tombstone
  std::size_t live_ = 0;
  std::function<void()> on_change_;
};

}  // namespace drowsy::kern

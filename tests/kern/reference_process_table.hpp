// The std::map process table, frozen as a differential oracle.
//
// This is kern::ProcessTable as it was before the flat pid-indexed
// vector replaced it, lifted out of src/ and left deliberately naive:
// one ordered map from pid to process.  tests/kern/test_process.cpp
// drives the same random spawn/reap/state/session sequence through it and
// through the production table and requires every query to agree.  Keep
// it unchanged — it is the spec, not the optimization.
#pragma once

#include <cassert>
#include <cstddef>
#include <map>
#include <string>
#include <utility>

#include "kern/process.hpp"

namespace drowsy::testing {

class ReferenceProcessTable {
 public:
  kern::Pid spawn(std::string name, kern::ProcState initial = kern::ProcState::Sleeping,
                  bool kernel_thread = false) {
    const kern::Pid pid = next_pid_++;
    kern::Process p;
    p.pid = pid;
    p.name = std::move(name);
    p.state = initial;
    p.kernel_thread = kernel_thread;
    procs_.emplace(pid, std::move(p));
    return pid;
  }

  bool reap(kern::Pid pid) { return procs_.erase(pid) > 0; }

  [[nodiscard]] kern::Process* find(kern::Pid pid) {
    auto it = procs_.find(pid);
    return it == procs_.end() ? nullptr : &it->second;
  }

  void set_state(kern::Pid pid, kern::ProcState state) {
    kern::Process* p = find(pid);
    assert(p != nullptr && "unknown pid");
    p->state = state;
  }

  [[nodiscard]] std::size_t size() const { return procs_.size(); }

  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const auto& [pid, p] : procs_) visit(p);
  }

  template <typename Keep>
  [[nodiscard]] std::size_t count_if(Keep&& keep) const {
    std::size_t n = 0;
    for (const auto& [pid, p] : procs_) {
      if (keep(p)) ++n;
    }
    return n;
  }

  template <typename Match>
  [[nodiscard]] bool any_of(Match&& match) const {
    for (const auto& [pid, p] : procs_) {
      if (match(p)) return true;
    }
    return false;
  }

 private:
  std::map<kern::Pid, kern::Process> procs_;
  kern::Pid next_pid_ = 1;
};

}  // namespace drowsy::testing

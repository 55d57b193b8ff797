#include "kern/process.hpp"

#include <cassert>

namespace drowsy::kern {

const char* to_string(ProcState s) {
  switch (s) {
    case ProcState::Running: return "running";
    case ProcState::Sleeping: return "sleeping";
    case ProcState::BlockedIo: return "blocked-io";
    case ProcState::Zombie: return "zombie";
  }
  return "?";
}

void Blacklist::add_exact(std::string name) { exact_.push_back(std::move(name)); }

void Blacklist::add_prefix(std::string prefix) { prefixes_.push_back(std::move(prefix)); }

bool Blacklist::contains(const std::string& name) const {
  for (const auto& e : exact_) {
    if (name == e) return true;
  }
  for (const auto& p : prefixes_) {
    if (name.compare(0, p.size(), p) == 0) return true;
  }
  return false;
}

Blacklist Blacklist::standard() {
  Blacklist b;
  b.add_prefix("kworker");
  b.add_prefix("ksoftirqd");
  b.add_prefix("rcu_");
  b.add_exact("watchdog");
  b.add_exact("khungtaskd");
  b.add_exact("monitoring-agent");
  b.add_exact("node-exporter");
  b.add_exact("drowsy-suspendd");  // our own suspending module must not keep the host up
  return b;
}

Pid ProcessTable::spawn(std::string name, ProcState initial, bool kernel_thread) {
  const Pid pid = next_pid_++;
  Process p;
  p.pid = pid;
  p.name = std::move(name);
  p.state = initial;
  p.kernel_thread = kernel_thread;
  procs_.emplace(pid, std::move(p));
  return pid;
}

bool ProcessTable::reap(Pid pid) { return procs_.erase(pid) > 0; }

Process* ProcessTable::find(Pid pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : &it->second;
}

const Process* ProcessTable::find(Pid pid) const {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : &it->second;
}

void ProcessTable::set_state(Pid pid, ProcState state) {
  Process* p = find(pid);
  assert(p != nullptr && "unknown pid");
  p->state = state;
}

}  // namespace drowsy::kern

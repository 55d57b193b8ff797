#include "kern/process.hpp"

#include <atomic>
#include <cassert>
#include <utility>

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

std::uint64_t Blacklist::next_id() {
  // Relaxed is enough: only uniqueness matters, and batch threads build
  // their blacklists concurrently.
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void Blacklist::add_exact(std::string name) {
  exact_.push_back(std::move(name));
  id_ = next_id();
}

void Blacklist::add_prefix(std::string prefix) {
  prefixes_.push_back(std::move(prefix));
  id_ = next_id();
}

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
  const auto pid = static_cast<Pid>(slots_.size() + 1);
  Process& p = slots_.emplace_back();
  p.pid = pid;
  p.name = std::move(name);
  p.state = initial;
  p.kernel_thread = kernel_thread;
  ++live_;
  if (initial == ProcState::BlockedIo) changed();
  return pid;
}

bool ProcessTable::reap(Pid pid) {
  Process* p = find(pid);
  if (p == nullptr) return false;
  const bool was_running = p->state == ProcState::Running;
  *p = Process{};  // tombstone: pid 0
  --live_;
  if (was_running) changed();
  return true;
}

Process* ProcessTable::find(Pid pid) {
  return const_cast<Process*>(std::as_const(*this).find(pid));
}

const Process* ProcessTable::find(Pid pid) const {
  if (pid < 1 || static_cast<std::size_t>(pid) > slots_.size()) return nullptr;
  const Process& p = slots_[static_cast<std::size_t>(pid) - 1];
  return p.pid == 0 ? nullptr : &p;
}

void ProcessTable::set_state(Pid pid, ProcState state) {
  Process* p = find(pid);
  assert(p != nullptr && "unknown pid");
  const ProcState old = p->state;
  p->state = state;
  if (state != old && (old == ProcState::Running || state == ProcState::BlockedIo)) {
    changed();
  }
}

void ProcessTable::open_session(Pid pid) {
  Process* p = find(pid);
  assert(p != nullptr && "unknown pid");
  ++p->open_sessions;
  changed();
}

}  // namespace drowsy::kern

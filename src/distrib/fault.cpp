#include "distrib/fault.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "distrib/shard.hpp"

namespace drowsy::distrib::fault {

namespace {

// The crash-point catalogue.  Order is the documentation order
// (docs/sweeps.md, "Worker death and recovery"); adding a point here is
// what registers it — DROWSY_CRASH_POINT on an unlisted name never
// fires and the chaos suite's coverage loop will not visit it, so keep
// the two in sync.
constexpr const char* kPoints[] = {
    "daemon.after_claim",    // lease granted and claim renamed, execution not started
    "daemon.after_lease",    // lease granted, claim rename not yet attempted
    "daemon.after_adopt",    // reaped journal adopted, before resume
    "journal.after_append",  // one journal row fully written and flushed
    "journal.torn_append",   // half a journal row written, then death (torn tail)
    "daemon.before_archive", // all rows journaled, nothing archived yet
    "daemon.mid_archive",    // journal in done/, manifest still claimed
    "reaper.before_commit",  // journal prefix snapshotted, claim not yet re-enqueued
    "reaper.after_commit",   // manifest re-enqueued, journal not yet beside it
    "reaper.after_journal",  // manifest + journal re-enqueued, cleanup pending
};
constexpr std::size_t kPointCount = sizeof(kPoints) / sizeof(kPoints[0]);

std::atomic<int> g_armed{-1};          // index into kPoints, -1 = disarmed
std::atomic<std::uint64_t> g_nth{1};   // die on this hit of the armed point
std::atomic<std::uint64_t> g_hits[kPointCount];

int point_index(const char* point) {
  for (std::size_t i = 0; i < kPointCount; ++i) {
    if (std::strcmp(kPoints[i], point) == 0) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

bool compiled_in() {
#ifdef DROWSY_FAULT_INJECTION
  return true;
#else
  return false;
#endif
}

const std::vector<std::string>& catalogue() {
  static const std::vector<std::string> names(kPoints, kPoints + kPointCount);
  return names;
}

void arm(const std::string& spec) {
  if (!compiled_in()) {
    throw DistribError("cannot arm crash point \"" + spec +
                       "\": fault injection is compiled out"
                       " (build with -DDROWSY_FAULT_INJECTION=ON)");
  }
  std::string name = spec;
  std::uint64_t nth = 1;
  if (const std::size_t colon = spec.rfind(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    const std::string count = spec.substr(colon + 1);
    char* end = nullptr;
    nth = std::strtoull(count.c_str(), &end, 10);
    if (count.empty() || *end != '\0' || nth == 0) {
      throw DistribError("crash point spec \"" + spec +
                         "\": nth must be a positive integer");
    }
  }
  const int index = point_index(name.c_str());
  if (index < 0) {
    std::string known;
    for (const std::string& p : catalogue()) {
      known += known.empty() ? p : ", " + p;
    }
    throw DistribError("unknown crash point \"" + name + "\" (known: " + known + ")");
  }
  disarm();
  g_nth.store(nth, std::memory_order_relaxed);
  g_armed.store(index, std::memory_order_release);
}

void arm_from_env() {
  const char* spec = std::getenv("DROWSY_CRASH_AT");
  if (spec == nullptr || *spec == '\0') return;
  arm(spec);
}

void disarm() {
  g_armed.store(-1, std::memory_order_release);
  g_nth.store(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kPointCount; ++i) {
    g_hits[i].store(0, std::memory_order_relaxed);
  }
}

std::uint64_t hits(const std::string& point) {
  const int index = point_index(point.c_str());
  if (index < 0) throw DistribError("unknown crash point \"" + point + "\"");
  return g_hits[index].load(std::memory_order_relaxed);
}

bool triggered(const char* point) noexcept {
  if (!compiled_in()) return false;
  const int index = point_index(point);
  if (index < 0) return false;
  const std::uint64_t hit =
      g_hits[index].fetch_add(1, std::memory_order_relaxed) + 1;
  if (g_armed.load(std::memory_order_acquire) != index) return false;
  return hit == g_nth.load(std::memory_order_relaxed);
}

void die(const char* point) noexcept {
  // write(2) + _exit(2): no stdio, no unwinding, no atexit — the
  // in-process equivalent of kill -9, except the stderr line names the
  // point so harnesses can assert *where* the victim died.
  char line[160];
  const int n = std::snprintf(line, sizeof(line),
                              "drowsy: crash point %s triggered — dying\n", point);
  if (n > 0) {
    static_cast<void>(::write(STDERR_FILENO, line,
                              static_cast<std::size_t>(n) < sizeof(line)
                                  ? static_cast<std::size_t>(n)
                                  : sizeof(line)));
  }
  ::_exit(kCrashExitCode);
}

}  // namespace drowsy::distrib::fault

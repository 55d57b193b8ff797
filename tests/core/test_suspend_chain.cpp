// The suspend-check chain parks while its host sleeps and while it is
// busy.  The oracle below is the always-on chain it replaced, frozen: an
// event every check_interval from start() that runs check() whatever the
// host's power state.  Each case drives both through the same script on
// its own queue and requires the same (instant, host, outcome) for every
// check of an awake host that did not end blocked_by_running, the same
// SuspendStats apart from `checks` and `blocked_by_running`, and the same
// suspend/resume counts, state times and energy per host.  (A busy chain
// parks precisely to skip the checks that repeat a running verdict.)
//
// Checks of different hosts at one instant are compared as a set: a
// re-armed check may run after another host's check it used to precede,
// and a check touches only its own host, so that order decides nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/suspend_module.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace c = drowsy::core;
namespace kn = drowsy::kern;
namespace s = drowsy::sim;
namespace t = drowsy::trace;
namespace u = drowsy::util;

namespace {

/// The pre-parking chain, frozen: start()/stop() and a self-rescheduling
/// event that checks every interval, asleep or not.
class AlwaysOnChain {
 public:
  AlwaysOnChain(s::EventQueue& q, c::SuspendModule& module, c::SuspendConfig config)
      : q_(q), module_(module), config_(config) {}

  void start() {
    if (running_ || !config_.enabled) return;
    running_ = true;
    schedule_next();
  }
  void stop() {
    running_ = false;
    ++generation_;
  }

 private:
  void schedule_next() {
    const std::uint64_t gen = generation_;
    q_.schedule_after(
        config_.check_interval,
        [this, gen] {
          if (generation_ != gen || !running_) return;
          module_.check();
          schedule_next();
        },
        drowsy::obs::EventTag::SuspendCheck);
  }

  s::EventQueue& q_;
  c::SuspendModule& module_;
  c::SuspendConfig config_;
  bool running_ = false;
  std::uint64_t generation_ = 0;
};

/// One simulated deployment: `hosts` hosts with one idle VM each, a
/// suspend module per host wired to its wake hook as Controller::install
/// does, driven either by the module's own chain or by the oracle.
struct World {
  World(std::size_t hosts, c::SuspendConfig config, bool quick_resume, bool use_oracle)
      : oracle(use_oracle) {
    for (std::size_t i = 0; i < hosts; ++i) {
      s::Host& host = cluster.add_host(s::HostSpec{"P" + std::to_string(i), 8, 16384, 2});
      host.set_quick_resume(quick_resume);
      s::Vm& vm = cluster.add_vm(s::VmSpec{"V" + std::to_string(i), 2, 6144},
                                 t::ActivityTrace(std::vector<double>(24, 0.0)));
      cluster.place(vm.id(), host.id());
      modules.push_back(std::make_unique<c::SuspendModule>(host, cluster, models, config));
      c::SuspendModule* module = modules.back().get();
      host.add_on_wake([module] { module->on_host_wake(); });
      chains.push_back(std::make_unique<AlwaysOnChain>(q, *module, config));
    }
  }

  /// Run `fn` outside dispatch once every event at or before `at` has
  /// run — where the controller does its hour-boundary work.  Checks that
  /// run in (at - 1, at] are logged at `at`.
  void between(u::SimTime at, std::function<void()> fn) {
    boundaries.emplace_back(at, std::move(fn));
  }

  void start(std::size_t i) { oracle ? chains[i]->start() : modules[i]->start(); }
  void stop(std::size_t i) { oracle ? chains[i]->stop() : modules[i]->stop(); }
  s::Host& host(std::size_t i) { return *cluster.host(static_cast<s::HostId>(i)); }
  s::Vm& vm(std::size_t i) { return *cluster.vm(static_cast<s::VmId>(i)); }

  s::EventQueue q;
  s::Cluster cluster{q};
  c::ModelBuilder models;
  std::vector<std::unique_ptr<c::SuspendModule>> modules;
  std::vector<std::unique_ptr<AlwaysOnChain>> chains;
  std::vector<std::pair<u::SimTime, std::function<void()>>> boundaries;
  bool oracle;
};

using Entry = std::tuple<u::SimTime, std::size_t, std::string>;

/// What one run leaves behind.
struct Outcome {
  std::vector<Entry> log;  ///< checks of awake hosts but running verdicts, sorted
  std::vector<std::vector<double>> per_host;
  std::uint64_t checks = 0;
  std::uint64_t decisions = 0;  ///< suspends + every blocked_by_*
};

std::string classify(const c::SuspendStats& a, const c::SuspendStats& b) {
  if (b.suspends != a.suspends) return "suspend";
  if (b.blocked_by_grace != a.blocked_by_grace) return "grace";
  if (b.blocked_by_running != a.blocked_by_running) return "running";
  if (b.blocked_by_io != a.blocked_by_io) return "io";
  if (b.blocked_by_sessions != a.blocked_by_sessions) return "sessions";
  if (b.blocked_by_imminent_timer != a.blocked_by_imminent_timer) return "timer";
  return "none";
}

std::uint64_t decisions(const c::SuspendStats& st) {
  return st.suspends + st.blocked_by_grace + st.blocked_by_running + st.blocked_by_io +
         st.blocked_by_sessions + st.blocked_by_imminent_timer;
}

using Script = std::function<void(World&)>;

/// Builds a world, lets `script` queue its actions, then steps the queue
/// up to `end`, attributing every stats change to the event that made it
/// (or, around a World::between action, to its instant).
Outcome run(std::size_t hosts, c::SuspendConfig config, bool quick_resume, bool use_oracle,
            u::SimTime end, const Script& script) {
  World w(hosts, config, quick_resume, use_oracle);
  bool done = false;
  w.q.schedule_at(end, [&done] { done = true; });
  script(w);
  // A marker 1 ms before each between() action; once it has run, the
  // harness finishes the instant with run_until and acts outside dispatch.
  std::size_t boundary = w.boundaries.size();
  for (std::size_t b = 0; b < w.boundaries.size(); ++b) {
    assert(w.boundaries[b].first > 0 && w.boundaries[b].first < end);
    w.q.schedule_at(w.boundaries[b].first - 1, [&boundary, b] { boundary = b; });
  }
  std::vector<c::SuspendStats> before(hosts);
  for (std::size_t i = 0; i < hosts; ++i) before[i] = w.modules[i]->stats();
  Outcome out;
  const auto attribute = [&] {
    for (std::size_t i = 0; i < hosts; ++i) {
      const c::SuspendStats& now = w.modules[i]->stats();
      if (now.checks != before[i].checks) {
        std::string what = classify(before[i], now);
        // A check that changed nothing else ran on a sleeping host —
        // unless the host is up, e.g. a check the script ran by hand.
        if (what != "running" && (what != "none" || w.host(i).state() == s::PowerState::S0)) {
          out.log.emplace_back(w.q.now(), i, std::move(what));
        }
      }
      before[i] = now;
    }
  };
  while (!done && w.q.step()) {
    attribute();
    if (boundary < w.boundaries.size()) {
      auto& [at, action] = w.boundaries[boundary];
      boundary = w.boundaries.size();
      w.q.run_until(at);
      attribute();
      action();
    }
  }
  std::sort(out.log.begin(), out.log.end());
  for (std::size_t i = 0; i < hosts; ++i) {
    s::Host& h = w.host(i);
    h.account_now();
    const c::SuspendStats& st = w.modules[i]->stats();
    out.per_host.push_back({static_cast<double>(h.suspend_count()),
                            static_cast<double>(h.resume_count()),
                            static_cast<double>(h.time_in(s::PowerState::S0)),
                            static_cast<double>(h.time_in(s::PowerState::S3)),
                            h.energy().joules(), static_cast<double>(st.suspends),
                            static_cast<double>(st.blocked_by_grace),
                            static_cast<double>(st.blocked_by_io),
                            static_cast<double>(st.blocked_by_sessions),
                            static_cast<double>(st.blocked_by_imminent_timer)});
    out.checks += st.checks;
    out.decisions += decisions(st);
  }
  return out;
}

struct ChainParams {
  u::SimTime interval;
  bool quick_resume;
};

class SuspendChainDifferential : public ::testing::TestWithParam<ChainParams> {
 protected:
  [[nodiscard]] u::SimTime interval() const { return GetParam().interval; }
  [[nodiscard]] u::SimTime latency() const {
    const s::PowerModel pm;
    return GetParam().quick_resume ? pm.quick_resume_latency : pm.resume_latency;
  }
  [[nodiscard]] bool parks() const {
    const s::PowerModel pm;
    return std::max(pm.resume_latency, pm.quick_resume_latency) < interval();
  }
  /// Grid point k of a chain started at 0.
  [[nodiscard]] u::SimTime grid(std::int64_t k) const { return k * interval(); }
  /// A grid index late enough that a host suspended by the first check
  /// has reached S3 (suspend latency is 5 s).
  [[nodiscard]] std::int64_t asleep_k() const {
    return (interval() + u::seconds(5) + latency()) / interval() + 2;
  }

  /// Runs the script under both chains, with and without grace time, and
  /// compares everything the parked chain must preserve.
  void expect_same(std::size_t hosts, u::SimTime end, const Script& script,
                   bool only_empty_hosts = false) {
    for (const bool grace : {true, false}) {
      SCOPED_TRACE(grace ? "grace on" : "grace off");
      c::SuspendConfig cfg;
      cfg.check_interval = interval();
      cfg.use_grace_time = grace;
      cfg.only_empty_hosts = only_empty_hosts;
      const Outcome oracle = run(hosts, cfg, GetParam().quick_resume, true, end, script);
      const Outcome parked = run(hosts, cfg, GetParam().quick_resume, false, end, script);
      EXPECT_EQ(parked.log, oracle.log);
      EXPECT_EQ(parked.per_host, oracle.per_host);
      EXPECT_FALSE(oracle.log.empty());
      EXPECT_LE(parked.checks, oracle.checks);
      // Parked, only awake hosts are checked, and every such check ends
      // in exactly one decision.
      if (parks()) {
        EXPECT_EQ(parked.checks, parked.decisions);
      }
    }
  }
};

/// Wake host `i` by a begin_resume queued now for instant `at`.
void wake_at(World& w, std::size_t i, u::SimTime at) {
  w.q.schedule_at(at, [&w, i] { w.host(i).begin_resume(); });
}

TEST_P(SuspendChainDifferential, WakeOnAGridPoint) {
  // The resume completes exactly on grid point k.  The wake is queued
  // first, so the resume event runs before any check at its start.
  const std::int64_t k = asleep_k();
  expect_same(1, grid(6 * k), [&, this](World& w) {
    w.start(0);
    wake_at(w, 0, grid(k) - latency());
    wake_at(w, 0, grid(4 * k) - latency());
  });
}

TEST_P(SuspendChainDifferential, WakeOnAGridPointQueuedAfterTheCheck) {
  // Same, but the begin_resume is queued after the always-on chain's
  // check at its instant, so that check runs first.  With latency ==
  // interval this flips the old chain's check at the wake instant.
  const std::int64_t k = asleep_k();
  expect_same(1, grid(6 * k), [&, this](World& w) {
    w.start(0);
    for (const u::SimTime at : {grid(k) - latency(), grid(4 * k) - latency()}) {
      w.q.schedule_at(at - interval() + 1, [&w, at] { wake_at(w, 0, at); });
    }
  });
}

TEST_P(SuspendChainDifferential, WakeOffTheGrid) {
  const std::int64_t k = asleep_k();
  expect_same(1, grid(8 * k), [&, this](World& w) {
    w.start(0);
    wake_at(w, 0, grid(k) + interval() / 3);
    wake_at(w, 0, grid(3 * k) - latency() + 1);  // lands 1 ms past a grid point
    wake_at(w, 0, grid(5 * k) - latency() - 1);  // and 1 ms before one
  });
}

TEST_P(SuspendChainDifferential, WakeRacesTheSuspend) {
  // The wake arrives while the host is still Suspending: it resumes as
  // soon as S3 is reached (Host's resume_pending_ path).
  expect_same(1, grid(6 * asleep_k()), [&, this](World& w) {
    w.start(0);
    wake_at(w, 0, grid(1) + u::seconds(2));
    w.q.schedule_at(grid(2 * asleep_k()), [&w] {
      if (w.host(0).state() == s::PowerState::Suspending) w.host(0).begin_resume();
    });
  });
}

TEST_P(SuspendChainDifferential, BusySpellsAfterWakes) {
  // Each wake is followed by a spell of activity, I/O, open sessions or
  // an imminent timer, so the awake checks see every blocker.
  const std::int64_t k = asleep_k();
  expect_same(1, grid(12 * k), [&, this](World& w) {
    w.start(0);
    s::Vm& vm = w.vm(0);
    kn::GuestOs& guest = vm.guest();
    const kn::Pid pid = vm.service_pid();
    const auto spell = [&w](u::SimTime from, u::SimTime to, std::function<void()> on,
                            std::function<void()> off) {
      w.q.schedule_at(from, std::move(on));
      w.q.schedule_at(to, std::move(off));
    };
    wake_at(w, 0, grid(k) - latency() / 2);
    spell(grid(k) + 7, grid(k + 3) + 7, [&vm] { vm.set_service_active(true); },
          [&vm] { vm.set_service_active(false); });
    wake_at(w, 0, grid(3 * k) + 11);
    spell(
        grid(3 * k) + 13, grid(3 * k + 2) + 13,
        [&guest, pid] { guest.processes().set_state(pid, kn::ProcState::BlockedIo); },
        [&guest, pid] { guest.processes().set_state(pid, kn::ProcState::Sleeping); });
    wake_at(w, 0, grid(5 * k) + 17);
    spell(grid(5 * k) + 19, grid(5 * k + 4) + 19, [&guest, pid] { guest.open_session(pid); },
          [&guest, pid] { guest.close_session(pid); });
    wake_at(w, 0, grid(7 * k) + 23);
    w.q.schedule_at(grid(7 * k) + 29, [&w, &guest] {
      guest.add_timer_service("report-job", w.q.now(), [](u::SimTime now) {
        return now + u::seconds(20);
      });
    });
  });
}

TEST_P(SuspendChainDifferential, StopAndStartWhileParked) {
  const std::int64_t k = asleep_k();
  expect_same(1, grid(10 * k), [&, this](World& w) {
    w.start(0);
    // Stopped and restarted while asleep: the restart moves the grid.
    w.q.schedule_at(grid(k), [&w] { w.stop(0); });
    w.q.schedule_at(grid(k) + interval() / 3, [&w] { w.start(0); });
    wake_at(w, 0, grid(2 * k) + interval() / 7);
    // Stopped while asleep, woken, restarted once awake.
    w.q.schedule_at(grid(5 * k) + interval() / 2, [&w] { w.stop(0); });
    wake_at(w, 0, grid(6 * k));
    w.q.schedule_at(grid(7 * k) + 3, [&w] { w.start(0); });
  });
}

TEST_P(SuspendChainDifferential, HandRunCheckWhileTheChainIsArmed) {
  // A check run by hand suspends the host between chain events; there
  // must still be exactly one chain afterwards.
  const std::int64_t k = asleep_k();
  expect_same(1, grid(6 * k), [&, this](World& w) {
    w.vm(0).set_service_active(true);
    w.start(0);
    w.q.schedule_at(grid(2) + interval() / 2, [&w] {
      w.vm(0).set_service_active(false);
      w.modules[0]->check();
    });
    wake_at(w, 0, grid(2 + k) + interval() / 5);
  });
}

TEST_P(SuspendChainDifferential, CoincidingHostsWakeAtTheSameInstants) {
  // Three hosts on one grid: all suspend on the first check, then wake
  // together on a grid point, together off it, and one at a time.
  const std::int64_t k = asleep_k();
  expect_same(3, grid(10 * k), [&, this](World& w) {
    for (std::size_t i = 0; i < 3; ++i) w.start(i);
    for (std::size_t i = 0; i < 3; ++i) wake_at(w, i, grid(k) - latency());
    for (std::size_t i = 0; i < 3; ++i) wake_at(w, i, grid(3 * k) + interval() / 4);
    wake_at(w, 1, grid(5 * k) - latency());
    wake_at(w, 2, grid(6 * k) + 5);
    w.q.schedule_at(grid(6 * k) + 9, [&w] { w.vm(2).set_service_active(true); });
    w.q.schedule_at(grid(7 * k) + 9, [&w] { w.vm(2).set_service_active(false); });
    wake_at(w, 0, grid(7 * k) - latency());
  });
}

TEST_P(SuspendChainDifferential, RandomWakeScripts) {
  // Seeded wake and activity storms over several hosts; wake instants are
  // drawn on, just before and just after grid points as well as anywhere.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::int64_t k = asleep_k();
    const u::SimTime end = grid(40 * k);
    expect_same(3, end, [&, this](World& w) {
      u::Rng rng(seed);
      for (std::size_t i = 0; i < 3; ++i) w.start(i);
      for (int n = 0; n < 40; ++n) {
        const auto i = static_cast<std::size_t>(rng.uniform_int(0, 2));
        const std::int64_t g = rng.uniform_int(1, 40 * k - 1);
        u::SimTime at = grid(g);
        switch (rng.uniform_int(0, 3)) {
          case 0: at -= latency(); break;          // resume ends on the grid
          case 1: at += rng.uniform_int(1, interval() - 1); break;
          case 2: at -= latency() + 1; break;
          default: break;                          // the request on the grid
        }
        if (at <= 0) at = 1;
        wake_at(w, i, at);
        if (rng.uniform_int(0, 2) == 0) {
          const u::SimTime busy = at + rng.uniform_int(0, 3 * interval());
          w.q.schedule_at(busy, [&w, i] { w.vm(i).set_service_active(true); });
          w.q.schedule_at(busy + rng.uniform_int(1, 4 * interval()),
                          [&w, i] { w.vm(i).set_service_active(false); });
        }
      }
    });
  }
}

/// Make VM `i` busy (or idle) by an event queued now for instant `at`.
void busy_at(World& w, std::size_t i, u::SimTime at, bool busy = true) {
  w.q.schedule_at(at, [&w, i, busy] { w.vm(i).set_service_active(busy); });
}

TEST_P(SuspendChainDifferential, BusyIdleFlipsOnAndOffTheGrid) {
  // A busy host parks its chain; each phase wakes the host, keeps it busy
  // for a while and ends the spell with a different kind of idle flip.
  const std::int64_t k = asleep_k();
  const u::SimTime iv = interval();
  expect_same(1, grid(16 * k), [&, this, iv](World& w) {
    busy_at(w, 0, 0);
    w.start(0);
    // On a grid point, queued before the park: that instant's check sees it.
    busy_at(w, 0, grid(3), false);
    // Off the grid.
    wake_at(w, 0, grid(2 * k) + 5);
    busy_at(w, 0, grid(2 * k) + 6);
    busy_at(w, 0, grid(2 * k + 3) + iv / 3, false);
    // On a grid point, queued within the interval before it: that
    // instant's check ran first, the next one sees it.
    wake_at(w, 0, grid(4 * k) + 5);
    busy_at(w, 0, grid(4 * k) + 6);
    w.q.schedule_at(grid(4 * k + 3) - iv + 1,
                    [&w, at = grid(4 * k + 3)] { busy_at(w, 0, at, false); });
    // On a grid point, queued after the park but more than an interval
    // ahead: that instant's check sees it.
    wake_at(w, 0, grid(6 * k) + 5);
    busy_at(w, 0, grid(6 * k) + 6);
    w.q.schedule_at(grid(6 * k + 2) + 3,
                    [&w, at = grid(6 * k + 5)] { busy_at(w, 0, at, false); });
    // Idle and busy again within one grid instant: the check sees busy.
    wake_at(w, 0, grid(8 * k) + 5);
    busy_at(w, 0, grid(8 * k) + 6);
    busy_at(w, 0, grid(8 * k + 3), false);
    busy_at(w, 0, grid(8 * k + 3));
    busy_at(w, 0, grid(8 * k + 5) + 1, false);
    // Busy just before a grid point, idle on it right after the check
    // that parks the chain there.
    wake_at(w, 0, grid(10 * k) - iv / 2);
    busy_at(w, 0, grid(10 * k) - 1);
    w.q.schedule_at(grid(10 * k) - 1, [&w, at = grid(10 * k)] { busy_at(w, 0, at, false); });
    // Busy just before a grid point; an event there, ahead of the check
    // that parks the chain, queues the idle flip one interval later.
    wake_at(w, 0, grid(12 * k) - iv / 2);
    busy_at(w, 0, grid(12 * k) - 1);
    w.q.schedule_at(grid(12 * k), [&w, at = grid(12 * k + 1)] { busy_at(w, 0, at, false); });
  });
}

TEST_P(SuspendChainDifferential, BusyIdleFlipsOutsideDispatch) {
  // The controller's hour-boundary work flips run states after run_until:
  // on a grid point, that instant's check has already run.
  const std::int64_t k = asleep_k();
  const u::SimTime iv = interval();
  expect_same(1, grid(10 * k), [&, this, iv](World& w) {
    busy_at(w, 0, 0);
    w.start(0);
    s::Vm& vm = w.vm(0);
    w.between(grid(3), [&vm] { vm.set_service_active(false); });
    wake_at(w, 0, grid(2 * k) + 5);
    w.between(grid(2 * k) + 7, [&vm] { vm.set_service_active(true); });
    w.between(grid(2 * k + 3) + iv / 2, [&vm] { vm.set_service_active(false); });
    wake_at(w, 0, grid(4 * k) + 5);
    w.between(grid(4 * k + 1), [&vm] { vm.set_service_active(true); });
    w.between(grid(4 * k + 4), [&vm] { vm.set_service_active(false); });
    // Idle then busy again at one boundary: nothing to see.
    wake_at(w, 0, grid(6 * k) + 5);
    busy_at(w, 0, grid(6 * k) + 6);
    w.between(grid(6 * k + 2), [&vm] {
      vm.set_service_active(false);
      vm.set_service_active(true);
    });
    w.between(grid(6 * k + 4), [&vm] { vm.set_service_active(false); });
  });
}

TEST_P(SuspendChainDifferential, VmMigratesOffABusyHost) {
  // Host 0 runs a busy VM and parks; the VM leaves (inside dispatch on
  // and off the grid, and outside it), so host 0 may sleep while host 1
  // takes the busy VM and parks in turn; then it comes back.
  const std::int64_t k = asleep_k();
  for (const bool only_empty : {false, true}) {
    SCOPED_TRACE(only_empty ? "only empty hosts" : "any idle host");
    expect_same(
        2, grid(12 * k),
        [&, this](World& w) {
          const s::VmId v = w.vm(0).id();
          const auto move = [&w, v](s::HostId to) { return [&w, v, to] { w.cluster.migrate(v, to); }; };
          busy_at(w, 0, 0);
          w.start(0);
          w.start(1);
          w.q.schedule_at(grid(2), move(1));
          wake_at(w, 0, grid(3 * k) + 3);
          wake_at(w, 1, grid(3 * k) + 3);
          w.q.schedule_at(grid(3 * k + 1) + 7, move(0));
          wake_at(w, 1, grid(6 * k) + 3);
          w.between(grid(6 * k + 2), move(1));
          wake_at(w, 0, grid(9 * k) + 3);
          wake_at(w, 1, grid(9 * k) + 3);
          w.q.schedule_at(grid(9 * k + 2) - interval() + 1,
                          [&w, v, at = grid(9 * k + 2)] {
                            w.q.schedule_at(at, [&w, v] { w.cluster.migrate(v, 0); });
                          });
        },
        only_empty);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_P(SuspendChainDifferential, BlockerInAnEarlierGuestEndsARunningVerdict) {
  // Two VMs on host 0: the later one runs, then the earlier one blocks on
  // I/O or opens a session, which the check reports ahead of the running
  // one, and finally the later one stops.
  const std::int64_t k = asleep_k();
  expect_same(2, grid(8 * k), [&, this](World& w) {
    w.cluster.migrate(w.vm(1).id(), 0);
    kn::GuestOs& first = w.vm(0).guest();
    const kn::Pid pid = w.vm(0).service_pid();
    busy_at(w, 1, 0);
    w.start(0);
    w.q.schedule_at(grid(3) + 1, [&first, pid] {
      first.processes().set_state(pid, kn::ProcState::BlockedIo);
    });
    w.q.schedule_at(grid(5) + 1, [&first, pid] {
      first.processes().set_state(pid, kn::ProcState::Sleeping);
    });
    w.q.schedule_at(grid(8), [&first, pid] { first.open_session(pid); });
    w.q.schedule_at(grid(11), [&first, pid] { first.close_session(pid); });
    w.between(grid(14), [&w] { w.vm(1).set_service_active(false); });
  });
}

INSTANTIATE_TEST_SUITE_P(
    Intervals, SuspendChainDifferential,
    // Below, at and above the quick (0.8 s) and normal (1.5 s) resume
    // latencies, then the deployed 15/30/60 s.
    ::testing::Values(ChainParams{500, true}, ChainParams{500, false},
                      ChainParams{800, true}, ChainParams{800, false},
                      ChainParams{1000, true}, ChainParams{1000, false},
                      ChainParams{1500, true}, ChainParams{1500, false},
                      ChainParams{2000, true}, ChainParams{2000, false},
                      ChainParams{u::seconds(15), true}, ChainParams{u::seconds(30), true},
                      ChainParams{u::seconds(30), false}, ChainParams{u::seconds(60), true}),
    [](const ::testing::TestParamInfo<ChainParams>& info) {
      return std::to_string(info.param.interval) + "ms_" +
             (info.param.quick_resume ? "quick" : "normal");
    });

}  // namespace

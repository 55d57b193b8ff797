// In-place delivery of request frames.
//
// net::SdnSwitch hands a request frame straight to its port when it has
// no port latency or serialization and the dispatcher says a frame queued
// now would be the next event to run (net::Dispatcher::would_run_next).
// The unit cases pin when that holds.  The differential runs one request
// schedule twice: over the event queue, which may run frames in place,
// and over AlwaysQueue, which never
// claims a frame would run next and so queues every frame.  Both runs
// must make the same observations in the same order (frames entering the
// switch, requests completing, power transitions) and end with the same
// RequestStats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/waking_module.hpp"
#include "net/sdn_switch.hpp"
#include "obs/event_profile.hpp"
#include "sim/event_queue.hpp"
#include "sim/requests.hpp"
#include "trace/trace.hpp"

namespace c = drowsy::core;
namespace n = drowsy::net;
namespace obs = drowsy::obs;
namespace s = drowsy::sim;
namespace t = drowsy::trace;
namespace u = drowsy::util;

namespace {

/// Forwards to an EventQueue but never lets a frame run in place.
class AlwaysQueue final : public n::Dispatcher {
 public:
  explicit AlwaysQueue(s::EventQueue& q) : q_(q) {}
  void schedule_after(u::SimTime delay, u::InlineFn fn, obs::EventTag tag) override {
    q_.schedule_after(delay, std::move(fn), tag);
  }
  [[nodiscard]] u::SimTime now() const override { return q_.now(); }

 private:
  s::EventQueue& q_;
};

n::Packet request_to(n::Ipv4 ip, n::MacAddress mac) {
  n::Packet p;
  p.kind = n::PacketKind::Request;
  p.dst = ip;
  p.dst_mac = mac;
  return p;
}

/// A switch with one port, over a bare queue, that logs deliveries.
struct OnePort : ::testing::Test {
  s::EventQueue q;
  obs::EventProfile profile;
  n::MacAddress mac = n::MacAddress::for_host(0);
  n::Ipv4 ip = n::Ipv4::for_vm(0);
  std::vector<std::string> order;

  OnePort() { q.set_profile(&profile); }
  ~OnePort() override { q.set_profile(nullptr); }

  void wire(n::SdnSwitch& sw) {
    sw.attach_port(mac, [this](const n::Packet& p) {
      order.push_back("deliver " + std::to_string(p.id) + " at " + std::to_string(q.now()));
    });
  }
  /// Inject request `id` at `at` from an event handler, then log.
  void inject_at(n::SdnSwitch& sw, u::SimTime at, std::uint64_t id) {
    q.schedule_at(at, [this, &sw, id] {
      n::Packet p = request_to(ip, mac);
      p.id = id;
      sw.inject(p);
      order.push_back("after inject " + std::to_string(id));
    });
  }
};

}  // namespace

TEST_F(OnePort, RequestThatWouldRunNextIsDeliveredBeforeInjectReturns) {
  n::SdnSwitch sw(q, /*port_latency=*/0, /*serialization=*/0);
  wire(sw);
  inject_at(sw, 10, 1);
  inject_at(sw, 20, 2);
  q.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"deliver 1 at 10", "after inject 1",
                                             "deliver 2 at 20", "after inject 2"}));
  EXPECT_EQ(profile.events(obs::EventTag::NetsimFrame), 0u);
  EXPECT_EQ(sw.forwarded_count(), 2u);
}

TEST_F(OnePort, AnEventDueInTheSameMillisecondKeepsTheFrameQueued) {
  // The other event was queued after the injecting one, so it runs
  // between the injection and the frame.
  n::SdnSwitch sw(q);
  wire(sw);
  inject_at(sw, 10, 1);
  q.schedule_at(10, [this] { order.push_back("other at 10"); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"after inject 1", "other at 10",
                                             "deliver 1 at 10"}));
  EXPECT_EQ(profile.events(obs::EventTag::NetsimFrame), 1u);
}

TEST_F(OnePort, AStreamEntryDueInTheSameMillisecondKeepsTheFrameQueued) {
  n::SdnSwitch sw(q);
  wire(sw);
  struct Injector final : s::EventQueue::StreamHandler {
    OnePort& fx;
    n::SdnSwitch& sw;
    Injector(OnePort& f, n::SdnSwitch& w) : fx(f), sw(w) {}
    void fire(std::uint32_t k) override {
      n::Packet p = request_to(fx.ip, fx.mac);
      p.id = k;
      sw.inject(p);
      fx.order.push_back("after inject " + std::to_string(k));
    }
  } injector(*this, sw);
  const std::vector<s::EventQueue::StreamEntry> entries{{10, 0}, {10, 1}, {11, 2}};
  q.set_stream(entries, injector, obs::EventTag::Request);
  q.run_all();
  // Frame 0 waits for entry 1; frame 1 waits for frame 0; frame 2 runs
  // in place.
  EXPECT_EQ(order, (std::vector<std::string>{"after inject 0", "after inject 1",
                                             "deliver 0 at 10", "deliver 1 at 10",
                                             "deliver 2 at 11", "after inject 2"}));
  EXPECT_EQ(profile.events(obs::EventTag::NetsimFrame), 2u);
}

TEST_F(OnePort, InjectionOutsideDispatchIsQueued) {
  n::SdnSwitch sw(q);
  wire(sw);
  n::Packet p = request_to(ip, mac);
  p.id = 1;
  EXPECT_TRUE(sw.inject(p));
  EXPECT_TRUE(order.empty());
  q.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"deliver 1 at 0"}));
  EXPECT_EQ(profile.events(obs::EventTag::NetsimFrame), 1u);
}

TEST_F(OnePort, PortLatencyOrSerializationKeepsFramesQueued) {
  n::SdnSwitch slow_port(q, /*port_latency=*/2);
  n::SdnSwitch serialized(q, /*port_latency=*/0, /*serialization=*/3);
  wire(slow_port);
  wire(serialized);
  inject_at(slow_port, 10, 1);
  inject_at(serialized, 20, 2);
  q.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"after inject 1", "deliver 1 at 12",
                                             "after inject 2", "deliver 2 at 23"}));
  EXPECT_EQ(profile.events(obs::EventTag::NetsimFrame), 2u);
}

TEST_F(OnePort, WakeOnLanFramesStayEvents) {
  n::SdnSwitch sw(q);
  wire(sw);
  q.schedule_at(10, [this, &sw] {
    n::Packet wol;
    wol.kind = n::PacketKind::WakeOnLan;
    wol.dst_mac = mac;
    wol.id = 1;
    sw.inject(wol);
    order.push_back("after inject 1");
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"after inject 1", "deliver 1 at 10"}));
  EXPECT_EQ(profile.events(obs::EventTag::NetsimFrame), 1u);
}

namespace {

/// One observation of a run, in the order the run made it.
struct Seen {
  enum Kind { Sent, Done, State };
  Kind kind;
  u::SimTime at;
  int host;           ///< Sent: destination host; State: the host; Done: -1
  std::uint64_t id;   ///< Sent: packet id
  int what;           ///< Sent: packet kind; Done: woke; State: new state
  double latency_ms;  ///< Done only

  bool operator==(const Seen&) const = default;
};

std::string describe(const Seen& e) {
  static const char* const kKinds[] = {"sent", "done", "state"};
  return std::string(kKinds[e.kind]) + " at=" + std::to_string(e.at) +
         " host=" + std::to_string(e.host) + " id=" + std::to_string(e.id) +
         " what=" + std::to_string(e.what) + " latency=" + std::to_string(e.latency_ms);
}

/// A host suspend at `at`, queued before or after the hour's arrivals.
struct Suspend {
  u::SimTime at;
  s::HostId host;
  bool before_stream;
};

enum class Via { Queue, AlwaysQueue };

/// Two hosts (two VMs on host 0, one on host 1) with steady request
/// traffic, a request fabric and a waking module on the switch.
class Rig {
 public:
  explicit Rig(Via via, u::SimTime port_latency = 0, u::SimTime serialization = 0)
      : always_(q_),
        sw_(via == Via::Queue ? static_cast<n::Dispatcher&>(q_)
                              : static_cast<n::Dispatcher&>(always_),
            port_latency, serialization),
        fabric_(cluster_, sw_, request_config()),
        waking_(cluster_, sw_, "waking") {
    q_.set_profile(&profile_);
    for (const char* name : {"A", "B"}) cluster_.add_host(s::HostSpec{name, 16, 65536, 4});
    for (const s::HostId host : {0, 0, 1}) {
      const auto& vm = cluster_.add_vm(s::VmSpec{"vm", 2, 6144}, t::ActivityTrace({1.0}));
      cluster_.place(vm.id(), host);
    }
    sw_.add_analyzer([this](const n::Packet& p) {
      log_.push_back({Seen::Sent, q_.now(), host_of(p), p.id, static_cast<int>(p.kind), 0.0});
    });
    fabric_.wire_ports();
    waking_.activate();
    fabric_.add_on_complete([this](u::SimTime at, double latency_ms, bool woke) {
      log_.push_back({Seen::Done, at, -1, 0, woke ? 1 : 0, latency_ms});
    });
    for (const auto& host : cluster_.hosts()) {
      s::Host* h = host.get();
      waking_.on_host_suspending(*h, u::kNever);  // registers the host's VMs
      h->add_on_wake([this, h] { waking_.on_host_resumed(*h); });
      h->add_on_transition([this, h](s::PowerState, s::PowerState to) {
        log_.push_back({Seen::State, q_.now(), static_cast<int>(h->id()), 0,
                        static_cast<int>(to), 0.0});
      });
    }
  }
  ~Rig() { q_.set_profile(nullptr); }

  void run(const std::vector<Suspend>& script, u::SimTime until) {
    for (const Suspend& s : script) {
      if (s.before_stream) schedule(s);
    }
    fabric_.schedule_hour(0);
    for (const Suspend& s : script) {
      if (!s.before_stream) schedule(s);
    }
    q_.run_until(until);
  }

  [[nodiscard]] const std::vector<Seen>& log() const { return log_; }
  [[nodiscard]] const s::RequestStats& stats() const { return fabric_.stats(); }
  [[nodiscard]] std::uint64_t frame_events() const {
    return profile_.events(obs::EventTag::NetsimFrame);
  }
  [[nodiscard]] std::uint64_t frames_forwarded() const { return sw_.forwarded_count(); }

 private:
  static s::RequestConfig request_config() {
    s::RequestConfig cfg;
    cfg.base_rate_per_hour = 36'000.0;  // ten a second per VM
    cfg.seed = 11;
    return cfg;
  }
  void schedule(const Suspend& s) {
    q_.schedule_at(s.at, [this, host = s.host] { cluster_.host(host)->begin_suspend(); });
  }
  /// The frame's destination host, or -1 for a MAC that is no host's.
  static int host_of(const n::Packet& p) {
    return static_cast<int>(p.dst_mac.host_index().value_or(UINT32_MAX));
  }

  s::EventQueue q_;
  s::Cluster cluster_{q_};
  AlwaysQueue always_;
  n::SdnSwitch sw_;
  s::RequestFabric fabric_;
  c::WakingModule waking_;
  obs::EventProfile profile_;
  std::vector<Seen> log_;
};

constexpr u::SimTime kRunFor = u::minutes(10);

/// Suspends chosen from the arrival instants of an unscripted run so that
/// every coincidence the in-place rule must respect happens: each suspend
/// lands on an arrival to its host, the resume it provokes completes on
/// another one, and the host receives two requests in one millisecond
/// while it is down.  Hosts alternate, and so does the suspend's place
/// before or after the hour's arrivals in sequence order.
std::vector<Suspend> coincident_suspends() {
  Rig probe(Via::AlwaysQueue);
  probe.run({}, kRunFor);
  std::map<int, std::map<u::SimTime, int>> arrivals;  // host -> ms -> count
  for (const Seen& e : probe.log()) {
    if (e.kind == Seen::Sent && e.what == static_cast<int>(n::PacketKind::Request)) {
      ++arrivals[e.host][e.at];
    }
  }
  const s::PowerModel pm;
  const u::SimTime down = pm.suspend_latency + pm.resume_latency;
  std::vector<Suspend> script;
  u::SimTime from = u::minutes(1);
  for (int round = 0; round < 8; ++round) {
    const int host = round % 2;
    const auto& at = arrivals[host];
    for (auto it = at.lower_bound(from); it != at.end() && it->first + down < kRunFor; ++it) {
      const u::SimTime t0 = it->first;
      if (!at.contains(t0 + down)) continue;
      const bool double_while_down =
          std::any_of(at.upper_bound(t0), at.lower_bound(t0 + down),
                      [](const auto& ms) { return ms.second >= 2; });
      if (!double_while_down) continue;
      script.push_back({t0, static_cast<s::HostId>(host), round % 4 < 2});
      from = t0 + u::seconds(20);
      break;
    }
  }
  return script;
}

/// What the schedule covered, counted over a run's log.
struct Coverage {
  int arrival_on_suspend = 0;    ///< a request reaches a host the ms it starts suspending
  int arrival_on_resume = 0;     ///< ... the ms its resume completes
  int arrival_on_wol = 0;        ///< ... the ms a WoL frame for it is sent
  int two_arrivals_asleep = 0;   ///< two requests in one ms to a host not in S0
  int arrivals_same_ms = 0;      ///< two requests in one ms to any hosts
};

Coverage coverage_of(const std::vector<Seen>& log) {
  Coverage cov;
  const int request = static_cast<int>(n::PacketKind::Request);
  const int wol = static_cast<int>(n::PacketKind::WakeOnLan);
  std::map<std::tuple<u::SimTime, int, int>, int> sent;  // (ms, host, kind) -> count
  std::map<std::pair<u::SimTime, int>, int> states;      // (ms, host) -> bitmask of states
  std::map<u::SimTime, int> requests_per_ms;
  const int awake = static_cast<int>(s::PowerState::S0);
  std::map<int, int> state{{0, awake}, {1, awake}};
  for (const Seen& e : log) {
    if (e.kind == Seen::State) {
      state[e.host] = e.what;
      states[{e.at, e.host}] |= 1 << e.what;
    } else if (e.kind == Seen::Sent) {
      if (e.what == request) {
        ++requests_per_ms[e.at];
        const int n_same = ++sent[{e.at, e.host, request}];
        if (n_same == 2 && state[e.host] != awake) {
          ++cov.two_arrivals_asleep;
        }
      } else if (e.what == wol) {
        ++sent[{e.at, e.host, wol}];
      }
    }
  }
  for (const auto& [key, count] : sent) {
    const auto [at, host, kind] = key;
    if (kind != request) continue;
    const int seen = states.contains({at, host}) ? states.at({at, host}) : 0;
    if (seen & (1 << static_cast<int>(s::PowerState::Suspending))) ++cov.arrival_on_suspend;
    if (seen & (1 << static_cast<int>(s::PowerState::S0))) ++cov.arrival_on_resume;
    if (sent.contains({at, host, wol})) ++cov.arrival_on_wol;
  }
  for (const auto& [at, count] : requests_per_ms) {
    if (count >= 2) ++cov.arrivals_same_ms;
  }
  return cov;
}

void expect_same_run(const Rig& got, const Rig& want) {
  const auto& a = got.log();
  const auto& b = want.log();
  const auto diverge = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (diverge.first != a.end() || diverge.second != b.end()) {
    const auto i = static_cast<std::size_t>(diverge.first - a.begin());
    ADD_FAILURE() << "logs diverge at observation " << i << " of " << a.size() << "/"
                  << b.size() << ":\n  got  "
                  << (diverge.first != a.end() ? describe(*diverge.first) : "(end)")
                  << "\n  want "
                  << (diverge.second != b.end() ? describe(*diverge.second) : "(end)");
  }
  const s::RequestStats& x = got.stats();
  const s::RequestStats& y = want.stats();
  EXPECT_EQ(x.total, y.total);
  EXPECT_EQ(x.within_sla, y.within_sla);
  EXPECT_EQ(x.woke_host, y.woke_host);
  EXPECT_EQ(x.lost, y.lost);
  EXPECT_EQ(x.sla_attainment(), y.sla_attainment());
  ASSERT_EQ(x.wake_latencies_ms.count(), y.wake_latencies_ms.count());
  if (!y.wake_latencies_ms.empty()) {
    EXPECT_EQ(x.wake_latencies_ms.quantile(0.99), y.wake_latencies_ms.quantile(0.99));
    EXPECT_EQ(x.wake_latencies_ms.quantile(1.0), y.wake_latencies_ms.quantile(1.0));
  }
}

}  // namespace

TEST(FramesInPlaceDifferential, SameObservationsAsQueuingEveryFrame) {
  const std::vector<Suspend> script = coincident_suspends();
  ASSERT_EQ(script.size(), 8u);

  Rig reference(Via::AlwaysQueue);
  reference.run(script, kRunFor);
  const Coverage cov = coverage_of(reference.log());
  EXPECT_GT(cov.arrival_on_suspend, 0);
  EXPECT_GT(cov.arrival_on_resume, 0);
  EXPECT_GT(cov.arrival_on_wol, 0);
  EXPECT_GT(cov.two_arrivals_asleep, 0);
  EXPECT_GT(cov.arrivals_same_ms, 0);
  EXPECT_GT(reference.stats().woke_host, 0u);
  EXPECT_EQ(reference.frame_events(), reference.frames_forwarded());

  Rig in_place(Via::Queue);
  in_place.run(script, kRunFor);
  expect_same_run(in_place, reference);
  // Most frames ran in place; WoL frames and collisions stayed events.
  EXPECT_GT(in_place.frame_events(), 0u);
  EXPECT_LT(in_place.frame_events() * 10, in_place.frames_forwarded());
}

TEST(FramesInPlaceDifferential, LatencyOrSerializationQueuesEveryFrame) {
  const std::vector<Suspend> script = coincident_suspends();

  Rig reference(Via::AlwaysQueue, /*port_latency=*/2);
  reference.run(script, kRunFor);
  Rig slow_port(Via::Queue, /*port_latency=*/2);
  slow_port.run(script, kRunFor);
  expect_same_run(slow_port, reference);
  EXPECT_EQ(slow_port.frame_events(), slow_port.frames_forwarded());

  Rig serialized(Via::Queue, /*port_latency=*/0, /*serialization=*/1);
  serialized.run(script, kRunFor);
  EXPECT_GT(serialized.frames_forwarded(), 0u);
  EXPECT_EQ(serialized.frame_events(), serialized.frames_forwarded());
}

#include "scenario/probes.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "expctl/runs_io.hpp"
#include "obs/trace_writer.hpp"
#include "sim/requests.hpp"

namespace drowsy::scenario {

std::string trace_file_name(const ScenarioSpec& spec, Policy policy,
                            std::uint64_t seed) {
  // Reuses the canonical spec hash the distrib layer journals under, so a
  // trace file pairs 1:1 with a journal row and sweep-axis variants that
  // share (scenario, policy, seed) still get distinct files.
  return spec.name + "-" + to_string(policy) + "-" + std::to_string(seed) + "-" +
         expctl::hex64(expctl::spec_hash(spec)) + ".trace.json";
}

namespace {

/// Records power transitions, WoL frames and SLA violations into a
/// TraceWriter, then flushes the file after harvest.
class TimelineObserver final : public RunObserver {
 public:
  TimelineObserver(const ScenarioSpec& spec, Policy policy, std::uint64_t seed,
                   ScenarioRun& run, std::string path)
      : run_(run),
        path_(std::move(path)),
        writer_(spec.name + " / " + to_string(policy) + " / seed " +
                std::to_string(seed)) {
    const auto& hosts = run.cluster.hosts();
    for (const auto& host : hosts) {
      const std::uint32_t track = writer_.add_track(host->name());
      host_track_[host->id()] = track;
      mac_track_[host->mac()] = track;
      open_state_[host->id()] = {host->state(), run.queue.now()};
      sim::Host* h = host.get();
      host->add_on_transition(
          [this, h](sim::PowerState from, sim::PowerState to) {
            on_transition(*h, from, to);
          });
    }
    requests_track_ = writer_.add_track("requests");

    // WoL frames: observe at the switch, where every frame passes.
    run.sdn.add_analyzer([this](const net::Packet& p) {
      if (p.kind != net::PacketKind::WakeOnLan) return;
      auto it = mac_track_.find(p.dst_mac);
      if (it != mac_track_.end()) writer_.add_instant(it->second, "wol", run_.queue.now());
    });

    // SLA violations, stamped at completion with the measured latency.
    const double sla_ms = run.controller->fabric().config().sla_ms;
    run.controller->fabric().add_on_complete(
        [this, sla_ms](util::SimTime at, double latency_ms, bool woke) {
          if (latency_ms <= sla_ms) return;
          expctl::Json args = expctl::Json::object();
          args.set("latency_ms", expctl::Json(latency_ms));
          args.set("woke_host", expctl::Json(woke));
          writer_.add_instant(requests_track_, "sla-violation", at, std::move(args));
        });
  }

  void on_finished(const RunResult& result) override {
    (void)result;
    // Close every host's open power-state slice at the run's end instant,
    // in host-id order (deterministic tail layout).
    const util::SimTime end = run_.queue.now();
    for (const auto& host : run_.cluster.hosts()) {
      const auto& open = open_state_.at(host->id());
      writer_.add_slice(host_track_.at(host->id()), sim::to_string(open.first),
                        open.second, end);
    }
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write trace file " + path_);
    out << writer_.dump();
    if (!out) throw std::runtime_error("short write to trace file " + path_);
  }

 private:
  void on_transition(const sim::Host& host, sim::PowerState from, sim::PowerState to) {
    (void)from;
    auto& open = open_state_[host.id()];
    const util::SimTime now = run_.queue.now();
    writer_.add_slice(host_track_.at(host.id()), sim::to_string(open.first),
                      open.second, now);
    open = {to, now};
  }

  ScenarioRun& run_;
  std::string path_;
  obs::TraceWriter writer_;
  std::unordered_map<sim::HostId, std::uint32_t> host_track_;
  std::unordered_map<net::MacAddress, std::uint32_t> mac_track_;
  std::unordered_map<sim::HostId, std::pair<sim::PowerState, util::SimTime>> open_state_;
  std::uint32_t requests_track_ = 0;
};

/// Attaches an EventProfile to the run's queue; folds it on finish.
class ProfileObserver final : public RunObserver {
 public:
  ProfileObserver(ScenarioRun& run, std::function<void(const obs::EventProfile&)> fold)
      : queue_(&run.queue), fold_(std::move(fold)) {
    queue_->set_profile(&profile_);
  }
  ~ProfileObserver() override { queue_->set_profile(nullptr); }

  void on_finished(const RunResult& result) override {
    (void)result;
    if (fold_) fold_(profile_);
  }

 private:
  sim::EventQueue* queue_;
  obs::EventProfile profile_;
  std::function<void(const obs::EventProfile&)> fold_;
};

/// Fans one run out to several observers.
class CompositeObserver final : public RunObserver {
 public:
  explicit CompositeObserver(std::vector<std::unique_ptr<RunObserver>> children)
      : children_(std::move(children)) {}
  void on_finished(const RunResult& result) override {
    for (const auto& child : children_) child->on_finished(result);
  }

 private:
  std::vector<std::unique_ptr<RunObserver>> children_;
};

}  // namespace

RunProbe timeline_probe(std::string dir) {
  return [dir = std::move(dir)](const ScenarioSpec& spec, Policy policy,
                                std::uint64_t seed,
                                ScenarioRun& run) -> std::unique_ptr<RunObserver> {
    std::filesystem::create_directories(dir);
    const std::string path =
        (std::filesystem::path(dir) / trace_file_name(spec, policy, seed)).string();
    return std::make_unique<TimelineObserver>(spec, policy, seed, run, path);
  };
}

RunProbe profile_probe(std::function<void(const obs::EventProfile&)> fold) {
  return [fold = std::move(fold)](const ScenarioSpec&, Policy, std::uint64_t,
                                  ScenarioRun& run) -> std::unique_ptr<RunObserver> {
    return std::make_unique<ProfileObserver>(run, fold);
  };
}

RunProbe combine_probes(std::vector<RunProbe> probes) {
  return [probes = std::move(probes)](const ScenarioSpec& spec, Policy policy,
                                      std::uint64_t seed,
                                      ScenarioRun& run) -> std::unique_ptr<RunObserver> {
    std::vector<std::unique_ptr<RunObserver>> children;
    for (const RunProbe& probe : probes) {
      if (!probe) continue;
      if (auto child = probe(spec, policy, seed, run)) {
        children.push_back(std::move(child));
      }
    }
    if (children.empty()) return nullptr;
    return std::make_unique<CompositeObserver>(std::move(children));
  };
}

}  // namespace drowsy::scenario

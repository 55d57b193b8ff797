#include "expctl/spec_io.hpp"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <string_view>

namespace drowsy::expctl {

namespace sc = drowsy::scenario;

// --- enum names ----------------------------------------------------------------

const std::vector<sc::TraceKind>& all_trace_kinds() {
  static const std::vector<sc::TraceKind> kinds = {
      sc::TraceKind::DailyBackup,    sc::TraceKind::ComicStrips,
      sc::TraceKind::LlmuConstant,   sc::TraceKind::NutanixLike,
      sc::TraceKind::DiplomaResults, sc::TraceKind::OfficeHours,
      sc::TraceKind::EndOfMonth,     sc::TraceKind::GoogleLlmu,
      sc::TraceKind::RandomLlmi,     sc::TraceKind::PhaseWindow,
      sc::TraceKind::DutyCycle,      sc::TraceKind::FileReplay,
  };
  return kinds;
}

const std::vector<sc::Policy>& all_policies() {
  static const std::vector<sc::Policy> policies = {
      sc::Policy::DrowsyDc,     sc::Policy::NeatS3, sc::Policy::NeatVanilla,
      sc::Policy::NeatNoSuspend, sc::Policy::Oasis, sc::Policy::DrowsyNetBatch,
  };
  return policies;
}

namespace {

template <typename Enum>
Enum enum_from_string(const std::string& name, const std::vector<Enum>& values,
                      const char* what) {
  for (const Enum v : values) {
    if (name == sc::to_string(v)) return v;
  }
  std::string known;
  for (const Enum v : values) {
    if (!known.empty()) known += ", ";
    known += sc::to_string(v);
  }
  throw SpecError(std::string("unknown ") + what + " \"" + name + "\" (known: " + known +
                  ")");
}

}  // namespace

sc::TraceKind trace_kind_from_string(const std::string& name) {
  return enum_from_string(name, all_trace_kinds(), "trace kind");
}

void check_keys(const Json& obj, const std::string& path,
                std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : obj.items()) {
    bool known = false;
    for (const std::string_view a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) throw SpecError(path + ": unknown key \"" + key + "\"");
  }
}

sc::Policy policy_from_string(const std::string& name) {
  return enum_from_string(name, all_policies(), "policy");
}

// --- reader helpers ------------------------------------------------------------

namespace {

/// Rethrow Json accessor failures with the field's dotted path attached.
template <typename Fn>
auto at_path(const std::string& path, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const JsonError& e) {
    throw SpecError(path + ": " + e.what());
  }
}

void require_object(const Json& j, const std::string& path) {
  if (!j.is_object()) throw SpecError(path + ": expected an object");
}

int get_int(const Json& obj, const char* key, int fallback, const std::string& path) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  return at_path(path + "." + key, [&] {
    const std::int64_t value = v->as_int();
    if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
      throw JsonError("out of int range");
    }
    return static_cast<int>(value);
  });
}

std::uint64_t get_uint64(const Json& obj, const char* key, std::uint64_t fallback,
                         const std::string& path) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  return at_path(path + "." + key, [&] { return v->as_uint(); });
}

double get_double(const Json& obj, const char* key, double fallback,
                  const std::string& path) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  return at_path(path + "." + key, [&] { return v->as_double(); });
}

bool get_bool(const Json& obj, const char* key, bool fallback, const std::string& path) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  return at_path(path + "." + key, [&] { return v->as_bool(); });
}

std::string get_string(const Json& obj, const char* key, std::string fallback,
                       const std::string& path) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  return at_path(path + "." + key, [&] { return v->as_string(); });
}

util::SimTime get_duration_ms(const Json& obj, const char* key, util::SimTime fallback,
                              const std::string& path) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  return at_path(path + "." + key, [&] { return v->as_int(); });
}

}  // namespace

// --- TraceSpec -----------------------------------------------------------------

Json to_json(const sc::TraceSpec& spec) {
  Json j = Json::object();
  j.set("kind", sc::to_string(spec.kind));
  j.set("years", static_cast<std::int64_t>(spec.years));
  j.set("noise", spec.noise);
  j.set("level", spec.level);
  j.set("hour", spec.hour);
  j.set("span_hours", spec.span_hours);
  j.set("period_hours", spec.period_hours);
  j.set("variant", static_cast<std::int64_t>(spec.variant));
  j.set("seed", spec.seed);
  // The replay knobs are emitted only when set: every pre-replay spec
  // keeps its exact dump bytes, so spec_hash fingerprints (and journals
  // keyed by them) survive this schema extension unchanged.
  if (!spec.path.empty()) j.set("path", spec.path);
  if (!spec.select.empty()) j.set("select", spec.select);
  if (spec.downsample != 1) j.set("downsample", spec.downsample);
  return j;
}

sc::TraceSpec trace_spec_from_json(const Json& j) {
  const std::string path = "workload";
  require_object(j, path);
  check_keys(j, path,
             {"kind", "years", "noise", "level", "hour", "span_hours", "period_hours",
              "variant", "seed", "path", "select", "downsample"});
  sc::TraceSpec spec;
  if (const Json* kind = j.find("kind")) {
    const std::string name = at_path(path + ".kind", [&] { return kind->as_string(); });
    try {
      spec.kind = trace_kind_from_string(name);
    } catch (const SpecError& e) {
      // Re-anchor the "unknown trace kind (known: ...)" message at its
      // JSON key; sweep loaders prepend the file path above this.
      throw SpecError(path + ".kind: " + e.what());
    }
  }
  spec.years = static_cast<std::size_t>(get_uint64(j, "years", spec.years, path));
  spec.noise = get_double(j, "noise", spec.noise, path);
  spec.level = get_double(j, "level", spec.level, path);
  spec.hour = get_int(j, "hour", spec.hour, path);
  spec.span_hours = get_int(j, "span_hours", spec.span_hours, path);
  spec.period_hours = get_int(j, "period_hours", spec.period_hours, path);
  spec.variant = static_cast<std::size_t>(get_uint64(j, "variant", spec.variant, path));
  spec.seed = get_uint64(j, "seed", spec.seed, path);
  spec.path = get_string(j, "path", spec.path, path);
  spec.select = get_string(j, "select", spec.select, path);
  spec.downsample = get_int(j, "downsample", spec.downsample, path);
  if (spec.downsample < 1) {
    throw SpecError(path + ".downsample: must be >= 1, got " +
                    std::to_string(spec.downsample));
  }
  if (!spec.path.empty() && spec.kind != sc::TraceKind::FileReplay) {
    throw SpecError(path + ".path: only valid with kind \"file-replay\" (got \"" +
                    std::string(sc::to_string(spec.kind)) + "\")");
  }
  if (spec.kind == sc::TraceKind::FileReplay && spec.path.empty()) {
    throw SpecError(path + ": kind \"file-replay\" requires a \"path\"");
  }
  return spec;
}

// --- VmGroup -------------------------------------------------------------------

Json to_json(const sc::VmGroup& group) {
  Json j = Json::object();
  j.set("name_prefix", group.name_prefix);
  j.set("first_index", group.first_index);
  j.set("count", group.count);
  j.set("vcpus", group.vcpus);
  j.set("memory_mb", group.memory_mb);
  j.set("workload", to_json(group.workload));
  j.set("shared_workload", group.shared_workload);
  return j;
}

sc::VmGroup vm_group_from_json(const Json& j) {
  const std::string path = "vm group";
  require_object(j, path);
  check_keys(j, path,
             {"name_prefix", "first_index", "count", "vcpus", "memory_mb", "workload",
              "shared_workload"});
  sc::VmGroup group;
  group.name_prefix = get_string(j, "name_prefix", group.name_prefix, path);
  group.first_index = get_int(j, "first_index", group.first_index, path);
  group.count = get_int(j, "count", group.count, path);
  group.vcpus = get_int(j, "vcpus", group.vcpus, path);
  group.memory_mb = get_int(j, "memory_mb", group.memory_mb, path);
  if (const Json* workload = j.find("workload")) {
    group.workload = trace_spec_from_json(*workload);
  }
  group.shared_workload = get_bool(j, "shared_workload", group.shared_workload, path);
  return group;
}

// --- ScenarioSpec --------------------------------------------------------------

Json to_json(const sc::ScenarioSpec& spec) {
  Json j = Json::object();
  j.set("name", spec.name);
  j.set("description", spec.description);
  j.set("paper_figure", spec.paper_figure);
  j.set("hosts", spec.hosts);
  j.set("host_prefix", spec.host_prefix);
  j.set("host_first_index", spec.host_first_index);

  Json host = Json::object();  // host_template.name is ignored by build()
  host.set("cpu_capacity", spec.host_template.cpu_capacity);
  host.set("memory_mb", spec.host_template.memory_mb);
  host.set("max_vms", spec.host_template.max_vms);
  j.set("host_template", std::move(host));

  Json power = Json::object();
  power.set("idle_watts", spec.power.idle_watts);
  power.set("peak_watts", spec.power.peak_watts);
  power.set("suspend_watts", spec.power.suspend_watts);
  power.set("transition_watts", spec.power.transition_watts);
  power.set("suspend_latency_ms", spec.power.suspend_latency);
  power.set("resume_latency_ms", spec.power.resume_latency);
  power.set("quick_resume_latency_ms", spec.power.quick_resume_latency);
  j.set("power", std::move(power));

  Json vms = Json::array();
  for (const sc::VmGroup& group : spec.vms) vms.push_back(to_json(group));
  j.set("vms", std::move(vms));

  j.set("pretrain_days", spec.pretrain_days);
  j.set("duration_days", spec.duration_days);
  j.set("request_rate_per_hour", spec.request_rate_per_hour);
  j.set("seed", spec.seed);
  j.set("relocate_all", spec.relocate_all);
  j.set("quick_resume", spec.quick_resume);
  j.set("opportunistic_step", spec.opportunistic_step);
  j.set("suspend_check_interval_ms", spec.suspend_check_interval);
  j.set("grace_min_ms", spec.grace_min);
  j.set("grace_max_ms", spec.grace_max);
  // The wake-fabric object is emitted only when some knob is set — the
  // TraceSpec replay-knob precedent: every pre-netsim spec keeps its exact
  // dump bytes, so spec_hash fingerprints survive this schema extension.
  if (!(spec.net == sc::NetSpec{})) {
    Json net = Json::object();
    net.set("enabled", spec.net.enabled);
    net.set("port_latency_ms", spec.net.port_latency);
    net.set("serialization_ms", spec.net.serialization);
    net.set("wake_max_in_flight", spec.net.wake_max_in_flight);
    net.set("wake_stagger_ms", spec.net.wake_stagger);
    net.set("wake_admission_window_ms", spec.net.wake_admission_window);
    j.set("net", std::move(net));
  }
  return j;
}

sc::ScenarioSpec scenario_spec_from_json(const Json& j) {
  const std::string path = "scenario";
  require_object(j, path);
  check_keys(j, path,
             {"name", "description", "paper_figure", "hosts", "host_prefix",
              "host_first_index", "host_template", "power", "vms", "pretrain_days",
              "duration_days", "request_rate_per_hour", "seed", "relocate_all",
              "quick_resume", "opportunistic_step", "suspend_check_interval_ms",
              "grace_min_ms", "grace_max_ms", "net"});
  sc::ScenarioSpec spec;
  spec.name = get_string(j, "name", spec.name, path);
  const std::string where = spec.name.empty() ? path : "scenario " + spec.name;
  spec.description = get_string(j, "description", spec.description, where);
  spec.paper_figure = get_string(j, "paper_figure", spec.paper_figure, where);
  spec.hosts = get_int(j, "hosts", spec.hosts, where);
  spec.host_prefix = get_string(j, "host_prefix", spec.host_prefix, where);
  spec.host_first_index = get_int(j, "host_first_index", spec.host_first_index, where);

  if (const Json* host = j.find("host_template")) {
    const std::string host_path = where + ".host_template";
    require_object(*host, host_path);
    check_keys(*host, host_path, {"cpu_capacity", "memory_mb", "max_vms"});
    spec.host_template.cpu_capacity =
        get_int(*host, "cpu_capacity", spec.host_template.cpu_capacity, host_path);
    spec.host_template.memory_mb =
        get_int(*host, "memory_mb", spec.host_template.memory_mb, host_path);
    spec.host_template.max_vms =
        get_int(*host, "max_vms", spec.host_template.max_vms, host_path);
  }

  if (const Json* power = j.find("power")) {
    const std::string power_path = where + ".power";
    require_object(*power, power_path);
    check_keys(*power, power_path,
               {"idle_watts", "peak_watts", "suspend_watts", "transition_watts",
                "suspend_latency_ms", "resume_latency_ms", "quick_resume_latency_ms"});
    spec.power.idle_watts = get_double(*power, "idle_watts", spec.power.idle_watts, power_path);
    spec.power.peak_watts = get_double(*power, "peak_watts", spec.power.peak_watts, power_path);
    spec.power.suspend_watts =
        get_double(*power, "suspend_watts", spec.power.suspend_watts, power_path);
    spec.power.transition_watts =
        get_double(*power, "transition_watts", spec.power.transition_watts, power_path);
    spec.power.suspend_latency =
        get_duration_ms(*power, "suspend_latency_ms", spec.power.suspend_latency, power_path);
    spec.power.resume_latency =
        get_duration_ms(*power, "resume_latency_ms", spec.power.resume_latency, power_path);
    spec.power.quick_resume_latency = get_duration_ms(
        *power, "quick_resume_latency_ms", spec.power.quick_resume_latency, power_path);
  }

  if (const Json* vms = j.find("vms")) {
    const auto& elements =
        at_path(where + ".vms", [&]() -> const std::vector<Json>& { return vms->elements(); });
    for (std::size_t i = 0; i < elements.size(); ++i) {
      try {
        spec.vms.push_back(vm_group_from_json(elements[i]));
      } catch (const SpecError& e) {
        throw SpecError(where + ".vms[" + std::to_string(i) + "]: " + e.what());
      }
    }
  }

  spec.pretrain_days = get_int(j, "pretrain_days", spec.pretrain_days, where);
  spec.duration_days = get_int(j, "duration_days", spec.duration_days, where);
  spec.request_rate_per_hour =
      get_double(j, "request_rate_per_hour", spec.request_rate_per_hour, where);
  spec.seed = get_uint64(j, "seed", spec.seed, where);
  spec.relocate_all = get_bool(j, "relocate_all", spec.relocate_all, where);
  spec.quick_resume = get_bool(j, "quick_resume", spec.quick_resume, where);
  spec.opportunistic_step =
      get_bool(j, "opportunistic_step", spec.opportunistic_step, where);
  spec.suspend_check_interval = get_duration_ms(j, "suspend_check_interval_ms",
                                                spec.suspend_check_interval, where);
  spec.grace_min = get_duration_ms(j, "grace_min_ms", spec.grace_min, where);
  spec.grace_max = get_duration_ms(j, "grace_max_ms", spec.grace_max, where);

  if (const Json* net = j.find("net")) {
    const std::string net_path = where + ".net";
    require_object(*net, net_path);
    check_keys(*net, net_path,
               {"enabled", "port_latency_ms", "serialization_ms", "wake_max_in_flight",
                "wake_stagger_ms", "wake_admission_window_ms"});
    spec.net.enabled = get_bool(*net, "enabled", spec.net.enabled, net_path);
    spec.net.port_latency =
        get_duration_ms(*net, "port_latency_ms", spec.net.port_latency, net_path);
    spec.net.serialization =
        get_duration_ms(*net, "serialization_ms", spec.net.serialization, net_path);
    spec.net.wake_max_in_flight =
        get_int(*net, "wake_max_in_flight", spec.net.wake_max_in_flight, net_path);
    spec.net.wake_stagger =
        get_duration_ms(*net, "wake_stagger_ms", spec.net.wake_stagger, net_path);
    spec.net.wake_admission_window = get_duration_ms(
        *net, "wake_admission_window_ms", spec.net.wake_admission_window, net_path);
  }

  if (std::string problem = spec.validate(); !problem.empty()) {
    throw SpecError("invalid scenario: " + problem);
  }
  return spec;
}

// --- sweep files ---------------------------------------------------------------

SweepSpec sweep_from_json(const Json& j, const sc::ScenarioRegistry& registry) {
  const std::string path = "sweep";
  require_object(j, path);
  check_keys(j, path, {"name", "scenarios", "policies", "replicates", "seeds", "axes"});

  SweepSpec sweep;
  sweep.name = get_string(j, "name", sweep.name, path);

  const Json& scenarios = j.at("scenarios");
  const auto& entries = at_path(path + ".scenarios",
                                [&]() -> const std::vector<Json>& { return scenarios.elements(); });
  if (entries.empty()) throw SpecError(path + ".scenarios: must name at least one scenario");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Json& entry = entries[i];
    if (entry.is_string()) {
      const sc::ScenarioSpec* spec = registry.find(entry.as_string());
      if (spec == nullptr) {
        throw SpecError(path + ".scenarios[" + std::to_string(i) + "]: no registry scenario \"" +
                        entry.as_string() + "\"");
      }
      sweep.scenarios.push_back(*spec);
    } else if (entry.is_object()) {
      try {
        sweep.scenarios.push_back(scenario_spec_from_json(entry));
      } catch (const SpecError& e) {
        throw SpecError(path + ".scenarios[" + std::to_string(i) + "]: " + e.what());
      }
    } else {
      throw SpecError(path + ".scenarios[" + std::to_string(i) +
                      "]: expected a registry name or an inline scenario object");
    }
  }

  if (const Json* policies = j.find("policies")) {
    const auto& names = at_path(path + ".policies",
                                [&]() -> const std::vector<Json>& { return policies->elements(); });
    for (const Json& name : names) {
      sweep.policies.push_back(
          policy_from_string(at_path(path + ".policies", [&] { return name.as_string(); })));
    }
  }
  if (sweep.policies.empty()) {
    sweep.policies.assign(sc::kPaperPolicies.begin(), sc::kPaperPolicies.end());
  }

  if (const Json* seeds = j.find("seeds")) {
    if (j.find("replicates") != nullptr) {
      throw SpecError(path + ": give either \"seeds\" or \"replicates\", not both");
    }
    const auto& values = at_path(path + ".seeds",
                                 [&]() -> const std::vector<Json>& { return seeds->elements(); });
    if (values.empty()) throw SpecError(path + ".seeds: must not be empty");
    for (const Json& v : values) {
      const std::uint64_t seed = at_path(path + ".seeds", [&] { return v.as_uint(); });
      if (seed == 0) {
        // 0 is BatchJob's internal "use spec.seed" sentinel; letting it
        // through would silently duplicate the spec-seed replicate.
        throw SpecError(path + ".seeds: seed 0 is reserved; use any non-zero seed");
      }
      sweep.seeds.push_back(seed);
    }
  } else {
    sweep.replicates =
        static_cast<std::size_t>(get_uint64(j, "replicates", sweep.replicates, path));
    if (sweep.replicates == 0) throw SpecError(path + ".replicates: must be at least 1");
  }

  if (const Json* axes = j.find("axes")) {
    const std::string axes_path = path + ".axes";
    require_object(*axes, axes_path);
    check_keys(*axes, axes_path,
               {"hosts", "request_rate_per_hour", "grace_max_ms",
                "suspend_check_interval_ms"});
    if (const Json* hosts = axes->find("hosts")) {
      for (const Json& v : at_path(axes_path + ".hosts", [&]() -> const std::vector<Json>& {
             return hosts->elements();
           })) {
        const int value = at_path(axes_path + ".hosts",
                                  [&] { return static_cast<int>(v.as_int()); });
        if (value <= 0) throw SpecError(axes_path + ".hosts: values must be positive");
        sweep.hosts_axis.push_back(value);
      }
    }
    if (const Json* rates = axes->find("request_rate_per_hour")) {
      for (const Json& v :
           at_path(axes_path + ".request_rate_per_hour",
                   [&]() -> const std::vector<Json>& { return rates->elements(); })) {
        const double value =
            at_path(axes_path + ".request_rate_per_hour", [&] { return v.as_double(); });
        if (value < 0.0) {
          throw SpecError(axes_path + ".request_rate_per_hour: values must be non-negative");
        }
        sweep.request_rate_axis.push_back(value);
      }
    }
    const auto duration_axis = [&](const char* key, std::vector<util::SimTime>& out) {
      const Json* values = axes->find(key);
      if (values == nullptr) return;
      const std::string key_path = axes_path + "." + key;
      for (const Json& v : at_path(key_path, [&]() -> const std::vector<Json>& {
             return values->elements();
           })) {
        const util::SimTime ms = at_path(key_path, [&] { return v.as_int(); });
        if (ms <= 0) throw SpecError(key_path + ": values must be positive");
        out.push_back(ms);
      }
    };
    duration_axis("grace_max_ms", sweep.grace_max_axis);
    duration_axis("suspend_check_interval_ms", sweep.check_interval_axis);
  }
  return sweep;
}

Json to_json(const SweepSpec& sweep) {
  Json j = Json::object();
  j.set("name", sweep.name);
  Json scenarios = Json::array();
  for (const sc::ScenarioSpec& spec : sweep.scenarios) scenarios.push_back(to_json(spec));
  j.set("scenarios", std::move(scenarios));
  Json policies = Json::array();
  for (const sc::Policy policy : sweep.policies) policies.push_back(sc::to_string(policy));
  j.set("policies", std::move(policies));
  if (!sweep.seeds.empty()) {
    Json seeds = Json::array();
    for (const std::uint64_t seed : sweep.seeds) seeds.push_back(seed);
    j.set("seeds", std::move(seeds));
  } else {
    j.set("replicates", static_cast<std::uint64_t>(sweep.replicates));
  }
  if (!sweep.hosts_axis.empty() || !sweep.request_rate_axis.empty() ||
      !sweep.grace_max_axis.empty() || !sweep.check_interval_axis.empty()) {
    Json axes = Json::object();
    if (!sweep.hosts_axis.empty()) {
      Json values = Json::array();
      for (const int h : sweep.hosts_axis) values.push_back(h);
      axes.set("hosts", std::move(values));
    }
    if (!sweep.request_rate_axis.empty()) {
      Json values = Json::array();
      for (const double r : sweep.request_rate_axis) values.push_back(r);
      axes.set("request_rate_per_hour", std::move(values));
    }
    const auto duration_axis = [&axes](const char* key,
                                       const std::vector<util::SimTime>& axis) {
      if (axis.empty()) return;
      Json values = Json::array();
      for (const util::SimTime ms : axis) values.push_back(ms);
      axes.set(key, std::move(values));
    };
    duration_axis("grace_max_ms", sweep.grace_max_axis);
    duration_axis("suspend_check_interval_ms", sweep.check_interval_axis);
    j.set("axes", std::move(axes));
  }
  return j;
}

namespace {

/// Axis value rendered for a scenario-name suffix ("120", "12.5") —
/// digits and '.' only, which ScenarioSpec::validate() accepts.
std::string axis_token(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::vector<sc::BatchJob> expand(const SweepSpec& sweep) {
  // Resolve the per-scenario spec variants first (axes may be empty, in
  // which case every base passes through under its own name).
  std::vector<sc::ScenarioSpec> variants;
  for (const sc::ScenarioSpec& base : sweep.scenarios) {
    const std::vector<int> hosts =
        sweep.hosts_axis.empty() ? std::vector<int>{base.hosts} : sweep.hosts_axis;
    const std::vector<double> rates = sweep.request_rate_axis.empty()
                                          ? std::vector<double>{base.request_rate_per_hour}
                                          : sweep.request_rate_axis;
    const std::vector<util::SimTime> graces = sweep.grace_max_axis.empty()
                                                  ? std::vector<util::SimTime>{base.grace_max}
                                                  : sweep.grace_max_axis;
    const std::vector<util::SimTime> intervals =
        sweep.check_interval_axis.empty()
            ? std::vector<util::SimTime>{base.suspend_check_interval}
            : sweep.check_interval_axis;
    for (const int h : hosts) {
      for (const double rate : rates) {
        for (const util::SimTime grace : graces) {
          for (const util::SimTime interval : intervals) {
            sc::ScenarioSpec spec = base;
            spec.hosts = h;
            spec.request_rate_per_hour = rate;
            spec.grace_max = grace;
            // An axis grace_max below the base grace_min would fail
            // validate(); clamp the floor so short-grace ablations work.
            spec.grace_min = std::min(spec.grace_min, grace);
            spec.suspend_check_interval = interval;
            if (!sweep.hosts_axis.empty()) spec.name += ".h" + std::to_string(h);
            if (!sweep.request_rate_axis.empty()) spec.name += ".r" + axis_token(rate);
            if (!sweep.grace_max_axis.empty()) spec.name += ".g" + std::to_string(grace);
            if (!sweep.check_interval_axis.empty()) {
              spec.name += ".c" + std::to_string(interval);
            }
            if (std::string problem = spec.validate(); !problem.empty()) {
              throw SpecError("sweep axis produced an invalid scenario: " + problem);
            }
            variants.push_back(std::move(spec));
          }
        }
      }
    }
  }

  std::vector<sc::BatchJob> jobs;
  if (sweep.seeds.empty()) {
    jobs = sc::cross(variants, sweep.policies, sweep.replicates);
  } else {
    jobs.reserve(variants.size() * sweep.policies.size() * sweep.seeds.size());
    for (const sc::ScenarioSpec& spec : variants) {
      for (const sc::Policy policy : sweep.policies) {
        for (const std::uint64_t seed : sweep.seeds) {
          jobs.push_back(sc::BatchJob{spec, policy, seed});
        }
      }
    }
  }
  return jobs;
}

// --- file helpers --------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw SpecError("cannot open " + path);
  std::string content;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, got);
  const bool error = std::ferror(f) != 0;
  std::fclose(f);
  if (error) throw SpecError("read error on " + path);
  return content;
}

LoadedSweep load_sweep(const std::string& path) {
  LoadedSweep loaded;
  loaded.bytes = read_file(path);
  try {
    loaded.sweep = sweep_from_json(Json::parse(loaded.bytes), sc::ScenarioRegistry::builtin());
  } catch (const SpecError& e) {
    throw SpecError(path + ": " + e.what());
  } catch (const JsonError& e) {
    throw SpecError(path + ": " + e.what());
  }
  return loaded;
}

}  // namespace drowsy::expctl

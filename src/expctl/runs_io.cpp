#include "expctl/runs_io.hpp"

#include <cstdio>
#include <limits>
#include <vector>

#include "expctl/spec_io.hpp"

namespace drowsy::expctl {

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t parse_hex64(const std::string& text) {
  if (text.size() != 16) {
    throw SpecError("bad hash \"" + text + "\": expected 16 hex digits");
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      throw SpecError("bad hash \"" + text + "\": expected 16 hex digits");
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  return value;
}

std::uint64_t spec_hash(const scenario::ScenarioSpec& spec) {
  return util::fnv1a64(to_json(spec).dump(0));
}

Json to_json(const scenario::RunResult& result) {
  Json j = Json::object();
  j.set("scenario", result.scenario);
  j.set("policy", result.policy);
  j.set("seed", result.seed);
  j.set("simulated_hours", result.simulated_hours);
  j.set("kwh", result.kwh);
  j.set("suspend_fraction", result.suspend_fraction);
  j.set("sla_attainment", result.sla_attainment);
  j.set("wake_latency_p99_ms", result.wake_latency_p99_ms);
  j.set("requests", result.requests);
  j.set("wakes", result.wakes);
  j.set("migrations", result.migrations);
  j.set("suspends", result.suspends);
  Json hosts = Json::array();
  for (const double f : result.host_suspend_fraction) hosts.push_back(f);
  j.set("host_suspend_fraction", std::move(hosts));
  j.set("switch_queue_delay_p99_ms", result.switch_queue_delay_p99_ms);
  j.set("wol_frames", result.wol_frames);
  j.set("host_unreachable_s", result.host_unreachable_s);
  return j;
}

namespace {

/// Rethrow Json accessor failures with the field name attached.
template <typename Fn>
auto field(const Json& j, const char* key, Fn&& accessor) -> decltype(accessor(j)) {
  const Json* v = j.find(key);
  if (v == nullptr) throw SpecError(std::string("run result: missing \"") + key + "\"");
  try {
    return accessor(*v);
  } catch (const JsonError& e) {
    throw SpecError(std::string("run result ") + key + ": " + e.what());
  }
}

int int_range_checked(const Json& v) {
  const std::int64_t value = v.as_int();
  if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    throw JsonError("out of int range");
  }
  return static_cast<int>(value);
}

}  // namespace

scenario::RunResult run_result_from_json(const Json& j) {
  if (!j.is_object()) throw SpecError("run result: expected an object");
  check_keys(j, "run result",
             {"scenario", "policy", "seed", "simulated_hours", "kwh", "suspend_fraction",
              "sla_attainment", "wake_latency_p99_ms", "requests", "wakes", "migrations",
              "suspends", "host_suspend_fraction", "switch_queue_delay_p99_ms",
              "wol_frames", "host_unreachable_s"});
  scenario::RunResult r;
  r.scenario = field(j, "scenario", [](const Json& v) { return v.as_string(); });
  r.policy = field(j, "policy", [](const Json& v) { return v.as_string(); });
  r.seed = field(j, "seed", [](const Json& v) { return v.as_uint(); });
  r.simulated_hours = field(j, "simulated_hours", [](const Json& v) { return v.as_int(); });
  r.kwh = field(j, "kwh", [](const Json& v) { return v.as_double(); });
  r.suspend_fraction =
      field(j, "suspend_fraction", [](const Json& v) { return v.as_double(); });
  r.sla_attainment = field(j, "sla_attainment", [](const Json& v) { return v.as_double(); });
  r.wake_latency_p99_ms =
      field(j, "wake_latency_p99_ms", [](const Json& v) { return v.as_double(); });
  r.requests = field(j, "requests", [](const Json& v) { return v.as_uint(); });
  r.wakes = field(j, "wakes", [](const Json& v) { return v.as_uint(); });
  r.migrations = field(j, "migrations", int_range_checked);
  r.suspends = field(j, "suspends", int_range_checked);
  r.host_suspend_fraction = field(j, "host_suspend_fraction", [](const Json& v) {
    std::vector<double> fractions;
    for (const Json& f : v.elements()) fractions.push_back(f.as_double());
    return fractions;
  });
  r.switch_queue_delay_p99_ms =
      field(j, "switch_queue_delay_p99_ms", [](const Json& v) { return v.as_double(); });
  r.wol_frames = field(j, "wol_frames", [](const Json& v) { return v.as_uint(); });
  r.host_unreachable_s =
      field(j, "host_unreachable_s", [](const Json& v) { return v.as_double(); });
  return r;
}

}  // namespace drowsy::expctl

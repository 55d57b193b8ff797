// Text-format experiment specs: ScenarioSpec round-trips and sweep files.
//
// The serializers emit every field in a fixed order, integers exactly and
// doubles in shortest-round-trip form, so dump(parse(dump(spec))) is
// byte-stable — the property that lets sweep files live in version
// control and diff cleanly.  The readers start from default-constructed
// specs, apply only the keys present (hand-written files stay terse),
// and reject unknown keys so a typo like "duraton_days" is an error, not
// a silently ignored knob.  All reader errors throw SpecError carrying a
// "path.to.field: problem" message.
//
// A *sweep file* describes a whole experiment grid:
//
//   {
//     "name": "example",
//     "scenarios": ["paper-testbed", { ...inline ScenarioSpec... }],
//     "policies": ["drowsy-dc", "neat+s3", "oasis"],
//     "replicates": 3,              // or "seeds": [1, 2, 3]
//     "axes": {                     // optional per-scenario overrides
//       "hosts": [4, 8],
//       "request_rate_per_hour": [10, 120],
//       "grace_max_ms": [30000, 120000],          // ablation: grace band top
//       "suspend_check_interval_ms": [15000, 30000]
//     }
//   }
//
// expand() turns that into the full (scenario x axes x policy x seed)
// BatchJob grid in the exact order scenario::cross() would enumerate, so
// a sweep file over registry names reproduces the compiled catalogue's
// per-run results bit for bit.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "expctl/json.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

namespace drowsy::expctl {

/// Structurally invalid spec or sweep content (missing/unknown/ill-typed
/// fields, unknown enum names, failed ScenarioSpec::validate()).
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- enum names (inverses of scenario::to_string) -----------------------------

[[nodiscard]] scenario::TraceKind trace_kind_from_string(const std::string& name);
[[nodiscard]] scenario::Policy policy_from_string(const std::string& name);

/// Every enum value, for exhaustive iteration (tests, CLI help).
[[nodiscard]] const std::vector<scenario::TraceKind>& all_trace_kinds();
[[nodiscard]] const std::vector<scenario::Policy>& all_policies();

/// Reject unknown object keys: every key of `obj` must be listed in
/// `allowed`, else SpecError "<path>: unknown key \"...\"".  The shared
/// strictness primitive for every reader here and in distrib.
void check_keys(const Json& obj, const std::string& path,
                std::initializer_list<std::string_view> allowed);

// --- spec <-> JSON -------------------------------------------------------------

[[nodiscard]] Json to_json(const scenario::TraceSpec& spec);
[[nodiscard]] Json to_json(const scenario::VmGroup& group);
[[nodiscard]] Json to_json(const scenario::ScenarioSpec& spec);

[[nodiscard]] scenario::TraceSpec trace_spec_from_json(const Json& j);
[[nodiscard]] scenario::VmGroup vm_group_from_json(const Json& j);
/// Parses and validate()s; a structurally sound but infeasible scenario
/// (e.g. VMs exceeding host capacity) is a SpecError.
[[nodiscard]] scenario::ScenarioSpec scenario_spec_from_json(const Json& j);

// --- sweep files ---------------------------------------------------------------

/// A parsed sweep: resolved base scenarios plus the expansion axes.
struct SweepSpec {
  std::string name = "sweep";
  std::vector<scenario::ScenarioSpec> scenarios;  ///< bases, resolved & validated
  std::vector<scenario::Policy> policies;         ///< never empty after parse
  std::vector<std::uint64_t> seeds;  ///< explicit seeds; empty = use replicates
  std::size_t replicates = 1;
  std::vector<int> hosts_axis;                ///< empty = keep each base's hosts
  std::vector<double> request_rate_axis;      ///< empty = keep each base's rate
  std::vector<util::SimTime> grace_max_axis;  ///< empty = keep each base's grace_max
  std::vector<util::SimTime> check_interval_axis;  ///< empty = keep base's interval
};

/// Parse a sweep document.  String entries in "scenarios" are looked up
/// in `registry`; object entries are inline ScenarioSpecs.
[[nodiscard]] SweepSpec sweep_from_json(const Json& j,
                                        const scenario::ScenarioRegistry& registry);

/// Serialize a resolved sweep as a self-contained sweep document: every
/// scenario inline (no registry references), axes only when non-empty.
/// sweep_from_json(to_json(s)) expands to the identical job grid — the
/// property that lets `drowsy_sweep study dump` feed `shard plan` and
/// the daemons without the workers knowing about studies.
[[nodiscard]] Json to_json(const SweepSpec& sweep);

/// Expand to the job grid: scenario x hosts-axis x rate-axis x grace-axis
/// x check-interval-axis x policy x seed, in scenario::cross() order.
/// Axis-derived specs get suffixed names ("paper-testbed.h8.r120.g30000.c15000")
/// and are re-validated; replicate seeds follow cross()'s rule
/// (first = spec.seed, then mix_seed(spec.seed, r)).
[[nodiscard]] std::vector<scenario::BatchJob> expand(const SweepSpec& sweep);

// --- file helpers --------------------------------------------------------------

/// Slurp a file; throws SpecError when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// A sweep file as read from disk: the parsed spec plus the raw bytes
/// that shard manifests pin by hash.
struct LoadedSweep {
  SweepSpec sweep;
  std::string bytes;
};

/// Read and parse the sweep file at `path` (registry names resolved in
/// the builtin registry).  Every parse or spec failure is anchored at the
/// file: a bad trace kind three levels deep reads "bad.json:
/// sweep.scenarios[0]: ... workload.kind: unknown trace kind ...".
[[nodiscard]] LoadedSweep load_sweep(const std::string& path);

}  // namespace drowsy::expctl

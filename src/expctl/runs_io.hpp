// Run-result round-trips and content hashing for distributed sweeps.
//
// scenario::to_csv renders RunResults at fixed %.6f precision — fine for
// human-facing artifacts, lossy for machine hand-off.  The distrib layer
// journals every finished run and later re-emits the *same* CSVs from the
// merged journals, so results must survive a write/parse cycle with their
// exact double bits.  This module round-trips RunResult through expctl's
// Json (shortest-round-trip doubles, exact 64-bit integers), giving
// dump(parse(dump(r))) == dump(r) and bit-identical re-emission.
//
// The hashes identify *what* was run: spec_hash() fingerprints a
// ScenarioSpec via its canonical JSON dump (the same bytes spec_io
// serializes, so equal specs hash equal across processes and machines),
// and fnv1a64() fingerprints raw file bytes so a shard can refuse to run
// against a sweep file that changed since it was planned.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "expctl/json.hpp"
#include "scenario/scenario.hpp"
#include "util/hash.hpp"

namespace drowsy::expctl {

// --- content hashing -----------------------------------------------------------

/// util::fnv1a64, under the name expctl callers (perfbench included) use.
using util::fnv1a64;

/// Fixed-width lowercase hex rendering (16 digits) for manifests/journals.
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Parse hex64() output (throws SpecError on malformed input).
[[nodiscard]] std::uint64_t parse_hex64(const std::string& text);

/// Canonical fingerprint of a scenario: util::fnv1a64 of to_json(spec).dump(0).
/// Two specs hash equal iff their serialized forms are identical, which
/// spec_io's fixed field order makes equivalent to field-wise equality.
[[nodiscard]] std::uint64_t spec_hash(const scenario::ScenarioSpec& spec);

// --- RunResult <-> JSON --------------------------------------------------------

[[nodiscard]] Json to_json(const scenario::RunResult& result);

/// Strict inverse of to_json: every field required, unknown keys rejected
/// (a journal row from a different schema version is an error, not a
/// silently zero-filled result).  Throws SpecError with the field name.
[[nodiscard]] scenario::RunResult run_result_from_json(const Json& j);

}  // namespace drowsy::expctl

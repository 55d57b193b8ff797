// Seeded mutational fuzz over shard manifests and claim leases.
//
// Both are read back from the shared queue directory, where crashes,
// copies and hand edits can leave any bytes, so their parsers must turn
// damage into a typed error.  Valid manifests and leases are mutated
// four ways (json_mutator.hpp: byte flips, truncation, key drops, type
// swaps) and fed to manifest_from_json, lease_from_json and, as a file,
// read_lease_file.  Every input must yield a value or a
// JsonError/SpecError/DistribError; anything else (a crash, a sanitizer
// report, a foreign exception) fails.  A value that parses must
// re-serialize to bytes that parse to the same value.
//
// Deterministic and bounded: fixed seeds and a fixed mutation budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>

#include "distrib/lease.hpp"
#include "distrib/shard.hpp"
#include "expctl/json.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"
#include "json_mutator.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace dtest = drowsy::testing;

namespace {

dt::ShardManifest sample_manifest(std::uint64_t seed) {
  dt::ShardManifest m;
  m.sweep_name = "catalogue-" + std::to_string(seed);
  m.sweep_file = "sweeps/paper_catalogue.json";
  m.sweep_hash = ec::fnv1a64("sweep" + std::to_string(seed));
  m.shard_count = 2 + seed % 5;
  m.shard_index = seed % m.shard_count;
  m.total_jobs = 165;
  for (std::size_t i = m.shard_index; i < m.total_jobs; i += m.shard_count) {
    m.job_indices.push_back(i);
  }
  return m;
}

dt::Lease sample_lease(std::uint64_t seed) {
  dt::Lease lease;
  lease.worker_id = "host-" + std::to_string(seed) + "-pid-4242";
  lease.manifest = "shard_" + std::to_string(seed % 7) + ".json";
  lease.granted_unix_ms = 1'760'000'000'000ULL + seed;
  lease.renewed_unix_ms = lease.granted_unix_ms + 12'345;
  lease.ttl_s = 30.0 + 0.25 * static_cast<double>(seed % 9);
  return lease;
}

/// Parse `text` with `parse`, a function of a Json returning a value with
/// a to_json overload.  True when it yields a value, which must
/// round-trip; false on a typed error; any other exception escapes.
template <typename Parse>
bool parses(const std::string& text, Parse parse) {
  try {
    const std::string once = dt::to_json(parse(ec::Json::parse(text))).dump(0);
    EXPECT_EQ(dt::to_json(parse(ec::Json::parse(once))).dump(0), once);
    return true;
  } catch (const ec::JsonError&) {
  } catch (const ec::SpecError&) {
  } catch (const dt::DistribError&) {
  }
  return false;
}

/// Mutate `seed_text` `rounds` times and count how the parser answers.
template <typename Parse>
void fuzz(const std::string& seed_text, std::mt19937_64& rng, int rounds, Parse parse,
          std::size_t& valid, std::size_t& rejected) {
  for (int n = 0; n < rounds; ++n) {
    const std::string text = dtest::mutate(seed_text, rng);
    SCOPED_TRACE(text);
    (parses(text, parse) ? valid : rejected) += 1;
  }
}

}  // namespace

TEST(ManifestFuzz, MutatedManifestsParseOrFailTyped) {
  std::size_t valid = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed : {1ULL, 2ULL, 0xD0D0ULL, 0xC0FFEEULL}) {
    std::mt19937_64 rng(seed);
    const std::string text = dt::to_json(sample_manifest(seed)).dump(0);
    ASSERT_TRUE(parses(text, dt::manifest_from_json));
    fuzz(text, rng, 1500, dt::manifest_from_json, valid, rejected);
  }
  // The mutators must reach the error paths and leave some inputs whole.
  EXPECT_GT(rejected, valid);
  EXPECT_GT(valid, 0u);
}

TEST(ManifestFuzz, RetiredStrategyIsATypedErrorUnderMutation) {
  // A manifest planned with a strategy the planner no longer has: the
  // document itself and every mutation of it are refused, typed.
  ec::Json old = dt::to_json(sample_manifest(3));
  old.set("strategy", "contiguous");
  const std::string text = old.dump(0);
  EXPECT_FALSE(parses(text, dt::manifest_from_json));
  std::mt19937_64 rng(0x5C0);
  std::size_t valid = 0;
  std::size_t rejected = 0;
  fuzz(text, rng, 600, dt::manifest_from_json, valid, rejected);
  EXPECT_EQ(valid, 0u);
  EXPECT_EQ(rejected, 600u);
}

TEST(LeaseFuzz, MutatedLeasesParseOrFailTyped) {
  std::size_t valid = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed : {1ULL, 7ULL, 0xBEEFULL}) {
    std::mt19937_64 rng(seed);
    const std::string text = dt::to_json(sample_lease(seed)).dump(0);
    ASSERT_TRUE(parses(text, dt::lease_from_json));
    fuzz(text, rng, 1500, dt::lease_from_json, valid, rejected);
  }
  EXPECT_GT(rejected, valid);
  EXPECT_GT(valid, 0u);
}

TEST(LeaseFuzz, MutatedLeaseFilesReadOrFailTyped) {
  const std::string path = ::testing::TempDir() + "drowsy_fuzz_lease.json";
  std::mt19937_64 rng(0x1EA5E);
  const dt::Lease good = sample_lease(11);
  const std::string text = dt::to_json(good).dump();
  std::size_t read = 0;
  std::size_t refused = 0;
  for (int n = 0; n < 600; ++n) {
    const std::string bad = dtest::mutate(text, rng);
    dtest::write_file(path, bad);
    SCOPED_TRACE(bad);
    try {
      const dt::Lease lease = dt::read_lease_file(path);
      const std::string once = dt::to_json(lease).dump(0);
      EXPECT_EQ(dt::to_json(dt::lease_from_json(ec::Json::parse(once))).dump(0), once);
      EXPECT_GT(lease.ttl_s, 0.0);
      ++read;
    } catch (const dt::DistribError&) {
      ++refused;
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(read, 0u);
  EXPECT_GT(refused, read);
}

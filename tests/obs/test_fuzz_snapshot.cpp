// Seeded mutational fuzz over worker metrics snapshots.
//
// `shard status` reads every worker's --metrics-json snapshot from a
// shared directory, where a crash or a hand edit can leave any bytes.  A
// snapshot shaped like the ones a sweep run writes is mutated four ways
// (../distrib/json_mutator.hpp) and fed to snapshot_from_json.  Every
// input must yield a JsonError or a snapshot that re-serializes to a
// document that parses back to the same snapshot.
//
// Deterministic and bounded: fixed seeds and a fixed mutation budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "../distrib/json_mutator.hpp"
#include "expctl/json.hpp"
#include "obs/snapshot.hpp"

namespace ec = drowsy::expctl;
namespace obs = drowsy::obs;
namespace dtest = drowsy::testing;

namespace {

/// A snapshot as `drowsy_sweep run --metrics-json` flushes it: counts for
/// a finished sweep and an event profile with every tag dispatched.
obs::WorkerSnapshot sample(std::uint64_t seed) {
  obs::WorkerSnapshot s;
  s.worker_id = "host-" + std::to_string(seed) + "-pid-4242";
  s.updated_unix_ms = 1'760'000'000'000ULL + seed;
  s.jobs_done = 12 + seed;
  s.journal_rows = s.jobs_done;
  s.trace_cache_hits = 30 + seed;
  s.trace_cache_misses = 12;
  for (std::size_t t = 0; t < obs::kEventTagCount; ++t) {
    for (std::uint64_t n = 0; n <= t + seed % 3; ++n) {
      s.profile.record(static_cast<obs::EventTag>(t), 1'000 * (t + 1) + 37 * n);
    }
  }
  return s;
}

bool parses(const std::string& text) {
  return dtest::round_trips<ec::JsonError>(
      text, obs::snapshot_from_json,
      [](const obs::WorkerSnapshot& snapshot) { return obs::to_json(snapshot); });
}

}  // namespace

TEST(SnapshotFuzz, MutatedSnapshotsParseOrFailTyped) {
  std::size_t valid = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed : {1ULL, 5ULL, 0xA11CEULL}) {
    std::mt19937_64 rng(seed);
    const std::string text = obs::to_json(sample(seed)).dump(2);
    ASSERT_TRUE(parses(text));
    for (int n = 0; n < 1000; ++n) {
      const std::string bad = dtest::mutate(text, rng);
      SCOPED_TRACE(bad);
      (parses(bad) ? valid : rejected) += 1;
    }
  }
  // The mutators must reach the error paths and leave some inputs whole.
  EXPECT_GT(rejected, valid);
  EXPECT_GT(valid, 0u);
}

// Seeded mutational fuzz over sweep documents.
//
// Every checked-in sweeps/*.json is mutated four ways
// (../distrib/json_mutator.hpp: byte flips, truncation, key drops, type
// swaps) and fed to sweep_from_json.  Every input must yield a
// JsonError/SpecError or a sweep; anything else (a crash, a sanitizer
// report, a foreign exception) fails.  A sweep that parses must
// re-serialize to a document that parses back to the same sweep.
//
// Deterministic and bounded: fixed seeds and a fixed mutation budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>

#include "../distrib/json_mutator.hpp"
#include "expctl/json.hpp"
#include "expctl/spec_io.hpp"
#include "scenario/registry.hpp"

namespace ec = drowsy::expctl;
namespace fs = std::filesystem;
namespace sc = drowsy::scenario;
namespace dtest = drowsy::testing;

namespace {

bool parses(const std::string& text) {
  return dtest::round_trips<ec::JsonError, ec::SpecError>(
      text,
      [](const ec::Json& j) { return ec::sweep_from_json(j, sc::ScenarioRegistry::builtin()); },
      [](const ec::SweepSpec& sweep) { return ec::to_json(sweep); });
}

}  // namespace

TEST(SweepFuzz, MutatedSweepFilesParseOrFailTyped) {
  std::size_t files = 0;
  std::size_t valid = 0;
  std::size_t rejected = 0;
  for (const auto& entry : fs::directory_iterator(std::string(DROWSY_SOURCE_DIR) + "/sweeps")) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().filename().string());
    const std::string text = ec::read_file(entry.path().string());
    ASSERT_TRUE(parses(text));
    ++files;
    std::mt19937_64 rng(0x5EEDULL + files);
    for (int n = 0; n < 400; ++n) {
      const std::string bad = dtest::mutate(text, rng);
      SCOPED_TRACE(bad);
      (parses(bad) ? valid : rejected) += 1;
    }
  }
  EXPECT_GE(files, 5u);
  // The mutators must reach the error paths and leave some inputs whole.
  EXPECT_GT(rejected, valid);
  EXPECT_GT(valid, 0u);
}

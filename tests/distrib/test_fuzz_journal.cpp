// Seeded mutational fuzz over journal rows.
//
// Journals are read back from shared storage after crashes, copies and
// hand edits, so their parser must turn any damage into a typed error.
// Valid rows are mutated four ways (byte flips, truncation, key drops
// anywhere in the row, and type swaps of one value) and fed both to
// journal_entry_from_json and, as a file, to read_journal.  Every input
// must yield a valid entry, a discarded torn tail, or a
// JsonError/SpecError/DistribError; anything else (a crash, a sanitizer
// report, a foreign exception) fails.  A row that does parse must
// re-serialize to a row that parses to the same bytes.
//
// Deterministic and bounded: fixed seeds and a fixed mutation budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "distrib/journal.hpp"
#include "expctl/json.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;

namespace {

dt::JournalEntry sample_entry(std::uint64_t seed) {
  dt::JournalEntry e;
  e.index = seed % 97;
  e.key.spec_hash = ec::fnv1a64("spec" + std::to_string(seed));
  e.key.policy = seed % 2 == 0 ? "drowsy-dc" : "neat+s3";
  e.key.seed = seed;
  e.wall_ms = 12.25 * static_cast<double>(seed % 13);
  e.result.scenario = "paper-testbed";
  e.result.policy = e.key.policy;
  e.result.seed = seed;
  e.result.simulated_hours = 72;
  e.result.kwh = 18.8 + 1.0 / static_cast<double>(seed + 3);
  e.result.suspend_fraction = 0.61;
  e.result.sla_attainment = 0.995;
  e.result.wake_latency_p99_ms = 890.5;
  e.result.requests = 1000 + seed;
  e.result.wakes = 40;
  e.result.migrations = 3;
  e.result.suspends = 17;
  e.result.host_suspend_fraction = {0.25, 0.5, 1.0 / 3.0};
  e.result.switch_queue_delay_p99_ms = 0.75;
  e.result.wol_frames = 12;
  e.result.host_unreachable_s = 3.5;
  return e;
}

/// A value of a different JSON type than `v`, picked by `pick`.
ec::Json swapped_type(const ec::Json& v, std::uint64_t pick) {
  std::vector<ec::Json> candidates = {
      ec::Json(nullptr),
      ec::Json(true),
      ec::Json(std::int64_t{-7}),
      ec::Json(~std::uint64_t{0}),
      ec::Json(-0.5),
      ec::Json(1e308),
      ec::Json("text"),
      ec::Json::array(),
      ec::Json::object(),
  };
  std::vector<ec::Json> other;
  for (ec::Json& c : candidates) {
    if (c.type() != v.type()) other.push_back(std::move(c));
  }
  return other[pick % other.size()];
}

/// Rebuild `j` with one randomly chosen key (at any depth of nested
/// objects) dropped or its value type-swapped.
ec::Json mutate_tree(const ec::Json& j, std::mt19937_64& rng, bool drop) {
  if (!j.is_object() || j.size() == 0) return j;
  const auto& items = j.items();
  const std::size_t target = rng() % items.size();
  // Recurse into a nested object half the time, when there is one.
  const bool descend = items[target].second.is_object() && rng() % 2 == 0;
  ec::Json out = ec::Json::object();
  for (std::size_t k = 0; k < items.size(); ++k) {
    const auto& [key, value] = items[k];
    if (k != target) {
      out.set(key, value);
    } else if (descend) {
      out.set(key, mutate_tree(value, rng, drop));
    } else if (!drop) {
      out.set(key, swapped_type(value, rng()));
    }
  }
  return out;
}

std::string mutate(const std::string& row, std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: {  // flip 1-4 bytes to arbitrary values
      std::string text = row;
      const int flips = 1 + static_cast<int>(rng() % 4);
      for (int f = 0; f < flips; ++f) {
        text[rng() % text.size()] = static_cast<char>(rng() % 256);
      }
      return text;
    }
    case 1:  // truncate anywhere
      return row.substr(0, rng() % row.size());
    case 2:
      return mutate_tree(ec::Json::parse(row), rng, /*drop=*/true).dump(0);
    default:
      return mutate_tree(ec::Json::parse(row), rng, /*drop=*/false).dump(0);
  }
}

/// Parse one row text.  Returns true when it yields a valid entry, false
/// on a typed error; any other exception escapes and fails the test.
bool parse_row(const std::string& text) {
  try {
    const dt::JournalEntry e = dt::journal_entry_from_json(ec::Json::parse(text));
    const std::string again = dt::to_json(e).dump(0);
    EXPECT_EQ(dt::to_json(dt::journal_entry_from_json(ec::Json::parse(again))).dump(0),
              again);
    EXPECT_GE(e.wall_ms, 0.0);
    return true;
  } catch (const ec::JsonError&) {
  } catch (const ec::SpecError&) {
  } catch (const dt::DistribError&) {
  }
  return false;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

}  // namespace

TEST(JournalFuzz, MutatedRowsParseOrFailTyped) {
  std::size_t valid = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed : {1ULL, 2ULL, 0xD0D0ULL, 0xC0FFEEULL}) {
    std::mt19937_64 rng(seed);
    const std::string row = dt::to_json(sample_entry(seed)).dump(0);
    ASSERT_TRUE(parse_row(row));
    for (int n = 0; n < 1500; ++n) {
      const std::string text = mutate(row, rng);
      SCOPED_TRACE(text);
      (parse_row(text) ? valid : rejected) += 1;
    }
  }
  // The mutators must actually reach the error paths.
  EXPECT_GT(rejected, valid);
}

TEST(JournalFuzz, MutatedJournalFilesReadOrFailTyped) {
  const std::string path = ::testing::TempDir() + "drowsy_fuzz_journal.jsonl";
  std::mt19937_64 rng(0x10A7);
  const std::string good = dt::to_json(sample_entry(5)).dump(0) + "\n";
  const std::string other = dt::to_json(sample_entry(8)).dump(0) + "\n";
  std::size_t torn = 0;
  std::size_t refused = 0;
  for (int n = 0; n < 400; ++n) {
    const std::string bad = mutate(good.substr(0, good.size() - 1), rng);
    // The damaged row sits at the tail (newline-less or terminated) or
    // between two good rows.
    std::string text;
    switch (n % 3) {
      case 0: text = good + bad; break;
      case 1: text = good + bad + "\n"; break;
      default: text = good + bad + "\n" + other; break;
    }
    write_file(path, text);
    SCOPED_TRACE(text);
    try {
      const dt::JournalContents contents = dt::read_journal(path);
      ASSERT_LE(contents.valid_bytes, text.size());
      ASSERT_GE(contents.entries.size(), 1u);
      EXPECT_EQ(dt::to_json(contents.entries.front()).dump(0) + "\n", good);
      if (contents.truncated_tail) {
        // Only the final line may be discarded.
        EXPECT_NE(n % 3, 2);
        EXPECT_EQ(contents.valid_bytes, good.size());
        ++torn;
      } else {
        EXPECT_EQ(contents.valid_bytes, text.size());
      }
    } catch (const dt::DistribError&) {
      ++refused;
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(torn, 0u);
  EXPECT_GT(refused, 0u);
}

#include "distrib/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "expctl/runs_io.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;

namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "drowsy_journal_" + name;
}

dt::JournalEntry entry(std::size_t index, std::uint64_t seed) {
  dt::JournalEntry e;
  e.index = index;
  e.key.spec_hash = ec::fnv1a64("spec" + std::to_string(index));
  e.key.policy = "drowsy-dc";
  e.key.seed = seed;
  e.result.scenario = "s" + std::to_string(index);
  e.result.policy = "drowsy-dc";
  e.result.seed = seed;
  e.result.simulated_hours = 24;
  e.result.kwh = 1.5 + static_cast<double>(index) / 3.0;
  e.result.requests = 10 * index;
  return e;
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

/// `row` with `key` removed.
ec::Json without(const ec::Json& row, const std::string& key) {
  ec::Json out = ec::Json::object();
  for (const auto& [k, v] : row.items()) {
    if (k != key) out.set(k, v);
  }
  return out;
}

void spit(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f), content.size());
  std::fclose(f);
}

}  // namespace

TEST(Journal, EntryRoundTrip) {
  const dt::JournalEntry e = entry(7, 42);
  const ec::Json j = dt::to_json(e);
  const dt::JournalEntry back = dt::journal_entry_from_json(j);
  EXPECT_EQ(back.index, 7u);
  EXPECT_TRUE(back.key == e.key);
  EXPECT_EQ(back.result.kwh, e.result.kwh);
  EXPECT_EQ(dt::to_json(back).dump(), j.dump());
}

TEST(Journal, WallMsRoundTripsAndRowsWithoutItAreRejected) {
  dt::JournalEntry e = entry(3, 9);
  e.wall_ms = 123.5;
  const ec::Json j = dt::to_json(e);
  EXPECT_EQ(dt::journal_entry_from_json(j).wall_ms, 123.5);
  // Every row carries wall_ms, a zero one included.
  const ec::Json zero = dt::to_json(entry(3, 9));
  ASSERT_NE(zero.find("wall_ms"), nullptr);
  EXPECT_EQ(dt::journal_entry_from_json(zero).wall_ms, 0.0);

  // One schema, strictly parsed: a row without wall_ms is a typed error.
  try {
    static_cast<void>(dt::journal_entry_from_json(without(j, "wall_ms")));
    ADD_FAILURE() << "a row without wall_ms parsed";
  } catch (const dt::DistribError& err) {
    EXPECT_NE(std::string(err.what()).find("wall_ms"), std::string::npos) << err.what();
  }
  ec::Json wrong_type = j;
  wrong_type.set("wall_ms", "slow");
  EXPECT_THROW(static_cast<void>(dt::journal_entry_from_json(wrong_type)), dt::DistribError);
}

TEST(Journal, RowMissingAnyKeyIsRejected) {
  // Identity keys and every embedded RunResult key alike.
  const ec::Json j = dt::to_json(entry(2, 5));
  for (const auto& [key, unused] : j.items()) {
    EXPECT_THROW(static_cast<void>(dt::journal_entry_from_json(without(j, key))),
                 dt::DistribError)
        << key;
  }
  for (const auto& [key, unused] : j.at("result").items()) {
    ec::Json row = j;
    row.set("result", without(j.at("result"), key));
    EXPECT_THROW(static_cast<void>(dt::journal_entry_from_json(row)), dt::DistribError)
        << "result." << key;
  }
}

TEST(Journal, NegativeWallMsIsRejected) {
  ec::Json j = dt::to_json(entry(1, 42));
  j.set("wall_ms", -5.0);
  EXPECT_THROW(static_cast<void>(dt::journal_entry_from_json(j)), dt::DistribError);
}

TEST(Journal, FileRowWithoutWallMsIsAHardError) {
  // A complete row that parses as JSON but lacks wall_ms was not torn by
  // a crash: read_journal refuses it wherever it sits, the tail included.
  const std::string good = dt::to_json(entry(0, 1)).dump(0) + "\n";
  const std::string bad = without(dt::to_json(entry(1, 2)), "wall_ms").dump(0) + "\n";
  const std::string path = temp_path("no_wall_ms.jsonl");
  spit(path, good + bad + good);
  EXPECT_THROW(static_cast<void>(dt::read_journal(path)), dt::DistribError);
  spit(path, good + bad);
  EXPECT_THROW(static_cast<void>(dt::read_journal(path)), dt::DistribError);
}

TEST(Journal, EntryParseRejectsInconsistentKey) {
  ec::Json j = dt::to_json(entry(1, 42));
  j.set("seed", std::uint64_t{43});  // key no longer matches embedded result
  EXPECT_THROW(static_cast<void>(dt::journal_entry_from_json(j)), dt::DistribError);
}

TEST(Journal, MissingFileIsEmpty) {
  const dt::JournalContents contents = dt::read_journal(temp_path("nonexistent.jsonl"));
  EXPECT_TRUE(contents.entries.empty());
  EXPECT_EQ(contents.valid_bytes, 0u);
  EXPECT_FALSE(contents.truncated_tail);
}

TEST(Journal, WriteReadRoundTrip) {
  const std::string path = temp_path("roundtrip.jsonl");
  std::remove(path.c_str());
  {
    dt::JournalWriter writer(path, 0);
    writer.append(entry(0, 1));
    writer.append(entry(1, 2));
    writer.append(entry(2, 3));
  }
  const dt::JournalContents contents = dt::read_journal(path);
  ASSERT_EQ(contents.entries.size(), 3u);
  EXPECT_FALSE(contents.truncated_tail);
  EXPECT_EQ(contents.valid_bytes, slurp(path).size());
  EXPECT_EQ(contents.entries[1].index, 1u);
  EXPECT_EQ(contents.entries[2].result.kwh, entry(2, 3).result.kwh);
}

TEST(Journal, TornTailIsDiscardedAndTruncatedOnResume) {
  const std::string path = temp_path("torn.jsonl");
  std::remove(path.c_str());
  {
    dt::JournalWriter writer(path, 0);
    writer.append(entry(0, 1));
    writer.append(entry(1, 2));
  }
  const std::string intact = slurp(path);
  // Simulate a crash mid-append: a prefix of row 2 without its newline.
  spit(path, intact + "{\"index\": 2, \"spec_ha");

  const dt::JournalContents contents = dt::read_journal(path);
  ASSERT_EQ(contents.entries.size(), 2u);
  EXPECT_TRUE(contents.truncated_tail);
  EXPECT_EQ(contents.valid_bytes, intact.size());

  // Re-opening for append drops the torn bytes, so the next row lands on
  // a clean line.
  {
    dt::JournalWriter writer(path, contents.valid_bytes);
    writer.append(entry(2, 3));
  }
  const dt::JournalContents resumed = dt::read_journal(path);
  ASSERT_EQ(resumed.entries.size(), 3u);
  EXPECT_FALSE(resumed.truncated_tail);
  EXPECT_EQ(resumed.entries[2].key.seed, 3u);
}

TEST(Journal, MalformedMidFileIsAHardError) {
  const std::string path = temp_path("midfile.jsonl");
  std::remove(path.c_str());
  const std::string good = dt::to_json(entry(0, 1)).dump(0) + "\n";
  spit(path, good + "not json\n" + good);
  EXPECT_THROW(static_cast<void>(dt::read_journal(path)), dt::DistribError);
}

TEST(Journal, CompleteButInvalidRowIsAHardErrorEvenAtTheTail) {
  // A complete line (newline present) that parses as JSON but has the
  // wrong shape cannot be crash fallout — refuse it.
  const std::string path = temp_path("invalid_tail.jsonl");
  std::remove(path.c_str());
  spit(path, dt::to_json(entry(0, 1)).dump(0) + "\n{\"index\": 2}\n");
  EXPECT_THROW(static_cast<void>(dt::read_journal(path)), dt::DistribError);
}

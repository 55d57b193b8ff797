#include "replay/replay.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "scenario/scenario.hpp"
#include "util/hash.hpp"

namespace rp = drowsy::replay;
namespace sc = drowsy::scenario;

namespace {

std::string temp_path(const std::string& name) { return ::testing::TempDir() + "/" + name; }

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f) << path;
  f << bytes;
}

constexpr const char* kTwoColumns =
    "alpha,beta\n"
    "0.1,0.9\n"
    "0.2,0.8\n"
    "0.3,0.7\n"
    "0.4,0.6\n";

}  // namespace

TEST(LoadReplayFile, ParsesColumnsAndHashesBytes) {
  const std::string path = temp_path("replay_load.csv");
  write_file(path, kTwoColumns);
  const auto file = rp::load_replay_file(path);
  ASSERT_EQ(file->columns.size(), 2u);
  EXPECT_EQ(file->columns[0].name(), "alpha");
  EXPECT_EQ(file->columns[1].name(), "beta");
  EXPECT_EQ(file->hash, drowsy::util::fnv1a64(kTwoColumns));
  EXPECT_NE(file->find("beta"), nullptr);
  EXPECT_EQ(file->find("gamma"), nullptr);
}

TEST(LoadReplayFile, MemoizesUntilTheBytesChange) {
  const std::string path = temp_path("replay_memo.csv");
  write_file(path, kTwoColumns);
  const auto first = rp::load_replay_file(path);
  const auto again = rp::load_replay_file(path);
  EXPECT_EQ(first.get(), again.get()) << "unchanged bytes reuse the parse";

  write_file(path, "alpha\n0.5\n");
  const auto changed = rp::load_replay_file(path);
  EXPECT_NE(changed.get(), first.get());
  EXPECT_NE(changed->hash, first->hash);
  ASSERT_EQ(changed->columns.size(), 1u);
}

TEST(LoadReplayFile, RejectsMissingEmptyAndUnparsable) {
  EXPECT_THROW(static_cast<void>(rp::load_replay_file(temp_path("absent.csv"))),
               std::runtime_error);
  const std::string empty = temp_path("replay_empty.csv");
  write_file(empty, "");
  EXPECT_THROW(static_cast<void>(rp::load_replay_file(empty)), std::runtime_error);
  const std::string headers_only = temp_path("replay_headers.csv");
  write_file(headers_only, "a,b\n");
  EXPECT_THROW(static_cast<void>(rp::load_replay_file(headers_only)), std::runtime_error);
}

TEST(ResolveTracePath, FallsBackToTraceRoot) {
  const std::string root = ::testing::TempDir();
  const std::string path = temp_path("replay_root.csv");
  write_file(path, kTwoColumns);
  ::setenv("DROWSY_TRACE_ROOT", root.c_str(), 1);
  // TempDir() may or may not end in '/'; the resolver joins without doubling.
  const std::string joined =
      (root.back() == '/' ? root : root + "/") + "replay_root.csv";
  EXPECT_EQ(rp::resolve_trace_path("replay_root.csv"), joined);
  // A path that exists as given wins over the root.
  EXPECT_EQ(rp::resolve_trace_path(path), path);
  // Unresolvable paths come back unchanged (the load reports both tries).
  EXPECT_EQ(rp::resolve_trace_path("no/such/file.csv"), "no/such/file.csv");
  ::unsetenv("DROWSY_TRACE_ROOT");
}

TEST(SelectColumn, ByNameByVariantAndWrapping) {
  const std::string path = temp_path("replay_select.csv");
  write_file(path, kTwoColumns);
  const auto file = rp::load_replay_file(path);

  EXPECT_EQ(rp::select_column(*file, "beta", 0, 1).name(), "beta");
  EXPECT_EQ(rp::select_column(*file, "", 0, 1).name(), "alpha");
  EXPECT_EQ(rp::select_column(*file, "", 1, 1).name(), "beta");
  EXPECT_EQ(rp::select_column(*file, "", 2, 1).name(), "alpha") << "variant wraps";
  // An explicit name beats the variant index.
  EXPECT_EQ(rp::select_column(*file, "alpha", 1, 1).name(), "alpha");

  try {
    static_cast<void>(rp::select_column(*file, "gamma", 0, 1));
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gamma"), std::string::npos) << msg;
    EXPECT_NE(msg.find("alpha"), std::string::npos) << "lists available columns: " << msg;
  }
}

TEST(SelectColumn, DownsampleMeanPoolsBlocks) {
  const std::string path = temp_path("replay_downsample.csv");
  write_file(path, kTwoColumns);
  const auto file = rp::load_replay_file(path);
  const auto pooled = rp::select_column(*file, "alpha", 0, 2);
  ASSERT_EQ(pooled.size(), 2u);
  EXPECT_DOUBLE_EQ(pooled.hours()[0], 0.15);  // mean(0.1, 0.2)
  EXPECT_DOUBLE_EQ(pooled.hours()[1], 0.35);  // mean(0.3, 0.4)
  // A partial tail pools over the remainder only.
  const auto tail = rp::select_column(*file, "alpha", 0, 3);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_DOUBLE_EQ(tail.hours()[0], 0.2);  // mean(0.1, 0.2, 0.3)
  EXPECT_DOUBLE_EQ(tail.hours()[1], 0.4);
  EXPECT_EQ(tail.name(), "alpha");
}

TEST(Materialize, FileReplayIsSeedIndependent) {
  const std::string path = temp_path("replay_materialize.csv");
  write_file(path, kTwoColumns);
  sc::TraceSpec spec;
  spec.kind = sc::TraceKind::FileReplay;
  spec.path = path;
  spec.select = "beta";
  const auto a = sc::materialize(spec, 1);
  const auto b = sc::materialize(spec, 999);
  EXPECT_EQ(a.hours(), b.hours()) << "the file is the workload; seeds are ignored";
  EXPECT_EQ(a.name(), "beta");
}

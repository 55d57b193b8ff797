// Seeded mutational fuzz over drowsy_trace convert's raw dataset readers.
//
// Raw Azure readings and Google task rows come from public exports and
// hand-cut slices, so fold_azure and fold_google must turn any bytes into
// traces or a typed error.  The checked-in traces/azure_sample.raw.csv and
// traces/google_sample.raw.csv are damaged by ../trace/csv_mutator.hpp:
// byte flips, truncation, one cell swapped for a malformed, non-finite or
// out-of-range value, and an extra column, each optionally with a UTF-8
// BOM and CRLF line endings added.  Every input must yield traces whose
// levels are all finite and in [0, 1], or a std::runtime_error.
//
// Deterministic and bounded: fixed seeds and a fixed mutation budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "../trace/csv_mutator.hpp"
#include "replay/dataset.hpp"

namespace rp = drowsy::replay;
namespace dt = drowsy::testing;

namespace {

constexpr int kMutationsPerSource = 300;

/// What a column holds, which decides the cells it must refuse.
enum class Kind { Time, Name, Integer, Reading };

/// Cells a damaged export may hold, and whether each kind refuses it.
struct BadCell {
  const char* text;
  bool time, name, integer, reading;
};
constexpr BadCell kBadCells[] = {
    {"nan", true, false, true, true},
    {"inf", true, false, true, true},
    {"-inf", true, false, true, true},
    {"0.5x", true, false, true, true},
    {"", true, true, true, true},
    {"-5", true, false, false, false},
    {"1e308", true, false, true, false},
    {"1000000000000000", true, false, false, false},  // 10^15 s: past ten years
};

bool refuses(Kind kind, const BadCell& cell) {
  switch (kind) {
    case Kind::Time: return cell.time;
    case Kind::Name: return cell.name;
    case Kind::Integer: return cell.integer;
    case Kind::Reading: return cell.reading;
  }
  return false;
}

std::string read_file(const std::string& relative) {
  std::ifstream f(std::string(DROWSY_SOURCE_DIR) + "/" + relative, std::ios::binary);
  EXPECT_TRUE(f) << relative;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void fuzz(const std::string& relative, rp::DatasetFormat format,
          const std::vector<Kind>& columns, std::uint64_t seed) {
  dt::fuzz_csv(
      read_file(relative), seed, kMutationsPerSource,
      [format](std::istream& in) { return rp::fold_dataset(format, in); },
      [&columns](std::size_t column, std::uint64_t pick) {
        const BadCell& cell = kBadCells[pick % std::size(kBadCells)];
        return std::pair{std::string(cell.text), refuses(columns.at(column), cell)};
      });
}

}  // namespace

TEST(DatasetFuzz, AzureSample) {
  fuzz("traces/azure_sample.raw.csv", rp::DatasetFormat::AzureVm,
       {Kind::Time, Kind::Name, Kind::Integer, Kind::Reading}, 3);
}

TEST(DatasetFuzz, GoogleSample) {
  fuzz("traces/google_sample.raw.csv", rp::DatasetFormat::GoogleTask,
       {Kind::Time, Kind::Time, Kind::Integer, Kind::Integer, Kind::Reading}, 4);
}

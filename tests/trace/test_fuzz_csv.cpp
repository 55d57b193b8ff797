// Seeded mutational fuzz over the trace-CSV parser.
//
// Trace CSVs come from converters, exporters and hand edits, so
// trace::read_csv must turn any bytes into traces or a typed error.  The
// write_csv output of generated traces and the checked-in
// traces/azure_sample.csv are damaged by byte flips, truncation, one cell
// swapped to a malformed or out-of-range level, and an extra column, each
// optionally with a UTF-8 BOM and CRLF line endings added.  Every input
// must yield traces whose levels are all finite and in [0, 1], or a
// std::runtime_error; anything else (a crash, a sanitizer report, an
// assert in ActivityTrace, a foreign exception) fails.
//
// The mutators live in csv_mutator.hpp.  Deterministic and bounded:
// fixed seeds and a fixed mutation budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "csv_mutator.hpp"
#include "trace/csv.hpp"
#include "trace/generators.hpp"

namespace t = drowsy::trace;
namespace dt = drowsy::testing;

namespace {

constexpr int kMutationsPerSource = 600;

/// Cells a damaged or hand-edited file may hold; all but "" are refused.
const char* const kBadCells[] = {"nan", "inf", "-0.2", "1.5", "0.5x", ""};

void fuzz(const std::string& text, std::uint64_t seed) {
  dt::fuzz_csv(
      text, seed, kMutationsPerSource,
      [](std::istream& in) { return t::read_csv(in); },
      [](std::size_t /*column*/, std::uint64_t pick) {
        const std::string cell = kBadCells[pick % std::size(kBadCells)];
        return std::pair{cell, !cell.empty()};
      });
}

}  // namespace

TEST(TraceCsvFuzz, GeneratedTraces) {
  t::GenOptions o;
  o.years = 1;
  o.noise = 0.05;
  const t::ActivityTrace sources[] = {t::office_hours(o), t::daily_backup(o),
                                      t::nutanix_like(3, o)};
  std::vector<t::ActivityTrace> traces;
  for (const auto& source : sources) {
    const auto& hours = source.hours();
    traces.emplace_back(std::vector<double>(hours.begin(), hours.begin() + 24 * 14),
                        source.name());
  }
  std::ostringstream out;
  t::write_csv(out, traces);
  fuzz(out.str(), 1);
}

TEST(TraceCsvFuzz, CheckedInAzureSample) {
  std::ifstream f(std::string(DROWSY_SOURCE_DIR) + "/traces/azure_sample.csv",
                  std::ios::binary);
  ASSERT_TRUE(f);
  const std::string text{std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
  fuzz(text, 2);
}

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
// Deterministic and bounded: fixed seeds and a fixed mutation budget.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "trace/csv.hpp"
#include "trace/generators.hpp"

namespace t = drowsy::trace;

namespace {

constexpr int kMutationsPerSource = 600;

/// Cells a damaged or hand-edited file may hold; all but "" are refused.
const char* const kBadCells[] = {"nan", "inf", "-0.2", "1.5", "0.5x", ""};

/// Byte offsets of every data cell: [begin, end) pairs past the header.
std::vector<std::pair<std::size_t, std::size_t>> data_cells(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  std::size_t pos = text.find('\n');
  while (pos != std::string::npos && pos + 1 < text.size()) {
    std::size_t begin = pos + 1;
    const std::size_t eol = std::min(text.find('\n', begin), text.size());
    for (std::size_t i = begin; i <= eol; ++i) {
      if (i == eol || text[i] == ',') {
        cells.emplace_back(begin, i);
        begin = i + 1;
      }
    }
    pos = eol < text.size() ? eol : std::string::npos;
  }
  return cells;
}

std::string with_crlf(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '\n') out += '\r';
    out += ch;
  }
  return out;
}

/// One damaged copy of `text`.  Sets `must_throw` when the damage alone
/// makes the file invalid (a refused cell or an extra column).
std::string mutate(const std::string& text, std::mt19937_64& rng, bool& must_throw) {
  must_throw = false;
  std::string out = text;
  switch (rng() % 4) {
    case 0: {  // flip 1-4 bytes to arbitrary values
      const int flips = 1 + static_cast<int>(rng() % 4);
      for (int f = 0; f < flips; ++f) out[rng() % out.size()] = static_cast<char>(rng() % 256);
      break;
    }
    case 1:  // truncate anywhere
      out.resize(rng() % out.size());
      break;
    case 2: {  // swap one data cell
      const auto cells = data_cells(out);
      const auto [begin, end] = cells[rng() % cells.size()];
      const std::string cell = kBadCells[rng() % std::size(kBadCells)];
      must_throw = !cell.empty();
      out.replace(begin, end - begin, cell);
      break;
    }
    default: {  // an extra column on one data row
      const auto cells = data_cells(out);
      const std::size_t row_end = out.find('\n', cells[rng() % cells.size()].second);
      out.insert(row_end == std::string::npos ? out.size() : row_end, ",0.5");
      must_throw = true;
      break;
    }
  }
  if (rng() % 4 == 0) out = "\xEF\xBB\xBF" + out;
  if (rng() % 4 == 0) out = with_crlf(out);
  return out;
}

/// Parses `text`; true when it yields traces, all of whose levels are
/// finite and in [0, 1].  Fails the test on any other outcome than that
/// or a std::runtime_error.
bool parses_to_valid_levels(const std::string& text) {
  std::istringstream in(text);
  std::vector<t::ActivityTrace> traces;
  try {
    traces = t::read_csv(in);
  } catch (const std::runtime_error&) {
    return false;
  } catch (...) {
    ADD_FAILURE() << "foreign exception";
    return false;
  }
  for (const auto& trace : traces) {
    for (const double v : trace.hours()) {
      EXPECT_TRUE(std::isfinite(v) && v >= 0.0 && v <= 1.0) << "level " << v;
    }
  }
  return true;
}

void fuzz(const std::string& text, std::uint64_t seed) {
  ASSERT_TRUE(parses_to_valid_levels(text)) << "the unmutated source must load";
  std::mt19937_64 rng(seed);
  int accepted = 0;
  for (int i = 0; i < kMutationsPerSource; ++i) {
    bool must_throw = false;
    const std::string input = mutate(text, rng, must_throw);
    const bool ok = parses_to_valid_levels(input);
    EXPECT_FALSE(ok && must_throw) << "mutation " << i << " was accepted";
    accepted += ok ? 1 : 0;
  }
  // Both outcomes must be exercised, or the mutator tests nothing.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutationsPerSource);
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

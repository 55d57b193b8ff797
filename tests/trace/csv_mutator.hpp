// Seeded CSV mutators shared by the trace-CSV and raw-dataset fuzz suites.
//
// mutate() damages one CSV text four ways: byte flips, truncation, one
// data cell swapped for a malformed or out-of-range value, and an extra
// column on one data row, each optionally with a UTF-8 BOM and CRLF line
// endings added.  fuzz_csv() feeds a fixed budget of seeded mutants to a
// parser: every input must yield traces whose levels are all finite and
// in [0, 1], or a std::runtime_error; anything else (a crash, a sanitizer
// report, an assert in ActivityTrace, a foreign exception) fails.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <istream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace drowsy::testing {

/// One data cell: byte offsets [begin, end) and its column.
struct CsvCell {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t column = 0;
};

/// Every data cell of `text`, past the header line.
inline std::vector<CsvCell> data_cells(const std::string& text) {
  std::vector<CsvCell> cells;
  std::size_t pos = text.find('\n');
  while (pos != std::string::npos && pos + 1 < text.size()) {
    std::size_t begin = pos + 1;
    std::size_t column = 0;
    const std::size_t eol = std::min(text.find('\n', begin), text.size());
    for (std::size_t i = begin; i <= eol; ++i) {
      if (i == eol || text[i] == ',') {
        cells.push_back({begin, i, column++});
        begin = i + 1;
      }
    }
    pos = eol < text.size() ? eol : std::string::npos;
  }
  return cells;
}

inline std::string with_crlf(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '\n') out += '\r';
    out += ch;
  }
  return out;
}

/// Picks the cell swapped into `column` from a random `pick`, and says
/// whether the parser must refuse it there.
using CellSwap = std::function<std::pair<std::string, bool>(std::size_t column,
                                                            std::uint64_t pick)>;

/// One damaged copy of `text`.  Sets `must_throw` when the damage alone
/// makes the file invalid (a refused cell or an extra column).
inline std::string mutate(const std::string& text, std::mt19937_64& rng, const CellSwap& swap,
                          bool& must_throw) {
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
      const CsvCell cell = cells[rng() % cells.size()];
      const auto [text_in, refused] = swap(cell.column, rng());
      must_throw = refused;
      out.replace(cell.begin, cell.end - cell.begin, text_in);
      break;
    }
    default: {  // an extra column on one data row
      const auto cells = data_cells(out);
      const std::size_t row_end = out.find('\n', cells[rng() % cells.size()].end);
      out.insert(row_end == std::string::npos ? out.size() : row_end, ",0.5");
      must_throw = true;
      break;
    }
  }
  if (rng() % 4 == 0) out = "\xEF\xBB\xBF" + out;
  if (rng() % 4 == 0) out = with_crlf(out);
  return out;
}

using CsvParser = std::function<std::vector<trace::ActivityTrace>(std::istream&)>;

/// Parses `text`; true when it yields traces, all of whose levels are
/// finite and in [0, 1].  Fails the test on any other outcome than that
/// or a std::runtime_error.
inline bool parses_to_valid_levels(const std::string& text, const CsvParser& parse) {
  std::istringstream in(text);
  std::vector<trace::ActivityTrace> traces;
  try {
    traces = parse(in);
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

/// Parses `mutations` seeded mutants of `text`, which must load as it is.
inline void fuzz_csv(const std::string& text, std::uint64_t seed, int mutations,
                     const CsvParser& parse, const CellSwap& swap) {
  ASSERT_TRUE(parses_to_valid_levels(text, parse)) << "the unmutated source must load";
  std::mt19937_64 rng(seed);
  int accepted = 0;
  for (int i = 0; i < mutations; ++i) {
    bool must_throw = false;
    const std::string input = mutate(text, rng, swap, must_throw);
    const bool ok = parses_to_valid_levels(input, parse);
    EXPECT_FALSE(ok && must_throw) << "mutation " << i << " was accepted";
    accepted += ok ? 1 : 0;
  }
  // Both outcomes must be exercised, or the mutator tests nothing.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, mutations);
}

}  // namespace drowsy::testing

#include "trace/csv.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace drowsy::trace {

void write_csv(std::ostream& out, const std::vector<ActivityTrace>& traces) {
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::vector<double>& levels = traces[i].hours();
    for (std::size_t h = 0; h < levels.size(); ++h) {
      // Negated so NaN is refused too.
      if (!(levels[h] >= 0.0 && levels[h] <= 1.0)) {
        throw std::runtime_error("CSV column " + std::to_string(i + 1) + " ('" +
                                 traces[i].name() + "') hour " + std::to_string(h) +
                                 ": activity level " + std::to_string(levels[h]) +
                                 " is not a number in [0, 1]");
      }
    }
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) out << ',';
    out << traces[i].name();
  }
  out << '\n';
  std::size_t max_len = 0;
  for (const auto& t : traces) max_len = std::max(max_len, t.size());
  for (std::size_t h = 0; h < max_len; ++h) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (i > 0) out << ',';
      if (h < traces[i].size()) out << traces[i].hours()[h];
    }
    out << '\n';
  }
}

void save_csv(const std::string& path, const std::vector<ActivityTrace>& traces) {
  std::ostringstream text;  // a refused level leaves no file
  write_csv(text, traces);
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f << text.str();
  if (!f) throw std::runtime_error("write failed: " + path);
}

namespace {

// Strip the artifacts real exporters leave behind: a UTF-8 BOM on the
// first line and a trailing '\r' on every line (CRLF files).
void scrub_line(std::string& line, bool first) {
  if (first && line.size() >= 3 && line[0] == '\xEF' && line[1] == '\xBB' && line[2] == '\xBF') {
    line.erase(0, 3);
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

/// One activity level: the whole cell must be a plain decimal number (no
/// whitespace, sign prefix '+' or trailing junk) that is finite and in
/// [0, 1].  write_csv refuses any other level, so its output always
/// parses.
double parse_level(const std::string& cell, std::size_t line_no, std::size_t col,
                   const std::string& name) {
  double v = 0.0;
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v < 0.0 || v > 1.0) {
    throw std::runtime_error("CSV row " + std::to_string(line_no) + " column " +
                             std::to_string(col + 1) + " ('" + name +
                             "'): activity level '" + cell +
                             "' is not a number in [0, 1]");
  }
  return v;
}

}  // namespace

std::vector<ActivityTrace> read_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("empty CSV");
  scrub_line(line, true);
  std::vector<std::string> names;
  {
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) names.push_back(cell);
  }
  if (names.empty()) throw std::runtime_error("CSV header has no columns");
  std::vector<std::vector<double>> columns(names.size());
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    scrub_line(line, false);
    if (line.empty()) continue;
    std::stringstream ss(line);
    std::string cell;
    std::size_t col = 0;
    while (std::getline(ss, cell, ',')) {
      if (col >= columns.size()) {
        throw std::runtime_error("CSV row " + std::to_string(line_no) + " has extra columns");
      }
      if (!cell.empty()) columns[col].push_back(parse_level(cell, line_no, col, names[col]));
      ++col;
    }
  }
  std::vector<ActivityTrace> out;
  out.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    out.emplace_back(std::move(columns[i]), names[i]);
  }
  return out;
}

std::vector<ActivityTrace> load_csv(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  return read_csv(f);
}

}  // namespace drowsy::trace

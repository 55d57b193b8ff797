#include "replay/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "util/rng.hpp"

namespace drowsy::replay {

const char* to_string(DatasetFormat f) {
  switch (f) {
    case DatasetFormat::AzureVm: return "azure";
    case DatasetFormat::GoogleTask: return "google";
  }
  return "?";
}

DatasetFormat dataset_format_from_string(const std::string& name) {
  if (name == "azure") return DatasetFormat::AzureVm;
  if (name == "google") return DatasetFormat::GoogleTask;
  throw std::invalid_argument("unknown dataset format \"" + name +
                              "\" (known: azure, google)");
}

namespace {

constexpr std::int64_t kSecondsPerHour = 3600;
/// Latest accepted time: ten years of seconds bounds every VM's lifetime,
/// so a corrupt timestamp cannot make the fold allocate or loop over
/// billions of hours.
constexpr std::int64_t kMaxSeconds = 10 * 365 * 24 * kSecondsPerHour;

/// getline tolerant of real-world exports: strips a UTF-8 BOM on the
/// first line, a trailing '\r' on every line (CRLF files).
bool next_line(std::istream& in, std::string& line, bool& first) {
  if (!std::getline(in, line)) return false;
  if (first) {
    first = false;
    if (line.rfind("\xEF\xBB\xBF", 0) == 0) line.erase(0, 3);
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(line.substr(start));
      return cells;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

[[noreturn]] void bad_row(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("row " + std::to_string(line_no) + ": " + what);
}

/// A finite decimal: std::stod alone also accepts "nan" and "inf".
double parse_double(const std::string& cell, std::size_t line_no, const char* field) {
  try {
    std::size_t used = 0;
    const double v = std::stod(cell, &used);
    if (used != cell.size() || !std::isfinite(v)) throw std::invalid_argument(cell);
    return v;
  } catch (const std::exception&) {
    bad_row(line_no, std::string(field) + ": bad number '" + cell + "'");
  }
}

std::int64_t parse_int(const std::string& cell, std::size_t line_no, const char* field) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(cell, &used);
    if (used != cell.size()) throw std::invalid_argument(cell);
    return v;
  } catch (const std::exception&) {
    bad_row(line_no, std::string(field) + ": bad integer '" + cell + "'");
  }
}

/// Seconds in [0, kMaxSeconds].
std::int64_t parse_time(const std::string& cell, std::size_t line_no, const char* field) {
  const std::int64_t v = parse_int(cell, line_no, field);
  if (v < 0 || v > kMaxSeconds) {
    bad_row(line_no, std::string(field) + ": " + cell + " s is outside [0, " +
                         std::to_string(kMaxSeconds) + "]");
  }
  return v;
}

void require_header(const std::string& got, const char* want) {
  if (got != want) {
    throw std::runtime_error("unexpected header \"" + got + "\" (want \"" + want + "\")");
  }
}

/// Per-VM accumulation buckets: activity mass and weight per absolute hour.
struct VmAccum {
  std::string name;
  std::int64_t first_hour = 0;
  std::int64_t last_hour = 0;
  // Sparse during accumulation; densified over the lifetime at the end.
  std::unordered_map<std::int64_t, double> mass;    ///< sum of weighted activity
  std::unordered_map<std::int64_t, double> weight;  ///< sum of weights
};

/// Insertion-ordered VM table (column order = first appearance).
struct VmTable {
  std::vector<VmAccum> vms;
  std::unordered_map<std::string, std::size_t> index;

  VmAccum& at(const std::string& name, std::int64_t hour) {
    auto [it, inserted] = index.try_emplace(name, vms.size());
    if (inserted) {
      vms.push_back(VmAccum{name, hour, hour, {}, {}});
      return vms.back();
    }
    VmAccum& vm = vms[it->second];
    vm.first_hour = std::min(vm.first_hour, hour);
    vm.last_hour = std::max(vm.last_hour, hour);
    return vm;
  }

  /// Densify: one entry per lifetime hour, gaps 0.0, values clamped.
  [[nodiscard]] std::vector<trace::ActivityTrace> finish() const {
    std::vector<trace::ActivityTrace> out;
    out.reserve(vms.size());
    for (const VmAccum& vm : vms) {
      std::vector<double> hours;
      hours.reserve(static_cast<std::size_t>(vm.last_hour - vm.first_hour + 1));
      for (std::int64_t h = vm.first_hour; h <= vm.last_hour; ++h) {
        double value = 0.0;
        if (const auto it = vm.weight.find(h); it != vm.weight.end() && it->second > 0.0) {
          value = vm.mass.at(h) / it->second;
        }
        hours.push_back(std::clamp(value, 0.0, 1.0));
      }
      out.emplace_back(std::move(hours), vm.name);
    }
    return out;
  }
};

}  // namespace

std::vector<trace::ActivityTrace> fold_azure(std::istream& in) {
  std::string line;
  bool first = true;
  if (!next_line(in, line, first)) throw std::runtime_error("empty dataset");
  require_header(line, "timestamp,vm_id,core_count,avg_cpu");

  VmTable table;
  std::size_t line_no = 1;
  while (next_line(in, line, first)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = split_csv(line);
    if (cells.size() != 4) bad_row(line_no, "expected 4 columns, got " +
                                                std::to_string(cells.size()));
    const std::int64_t ts = parse_time(cells[0], line_no, "timestamp");
    if (cells[1].empty()) bad_row(line_no, "vm_id: empty");
    static_cast<void>(parse_int(cells[2], line_no, "core_count"));  // format check only
    const double avg_cpu = parse_double(cells[3], line_no, "avg_cpu");

    const std::int64_t hour = ts / kSecondsPerHour;
    VmAccum& vm = table.at(cells[1], hour);
    // Percent -> utilization, clamped per reading: readings of
    // opposite-sign huge magnitudes could otherwise sum to inf - inf.
    vm.mass[hour] += std::clamp(avg_cpu / 100.0, 0.0, 1.0);
    vm.weight[hour] += 1.0;  // plain mean over the hour's readings
  }
  return table.finish();
}

std::vector<trace::ActivityTrace> fold_google(std::istream& in) {
  std::string line;
  bool first = true;
  if (!next_line(in, line, first)) throw std::runtime_error("empty dataset");
  require_header(line, "start_time,end_time,job_id,task_index,cpu_rate");

  VmTable table;
  std::size_t line_no = 1;
  while (next_line(in, line, first)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = split_csv(line);
    if (cells.size() != 5) bad_row(line_no, "expected 5 columns, got " +
                                                std::to_string(cells.size()));
    const std::int64_t start = parse_time(cells[0], line_no, "start_time");
    const std::int64_t end = parse_time(cells[1], line_no, "end_time");
    if (end <= start) bad_row(line_no, "end_time: must exceed start_time");
    const std::int64_t job = parse_int(cells[2], line_no, "job_id");
    const std::int64_t task = parse_int(cells[3], line_no, "task_index");
    const double rate = std::clamp(parse_double(cells[4], line_no, "cpu_rate"), 0.0, 1.0);

    const std::string name = "j" + std::to_string(job) + "-t" + std::to_string(task);
    const std::int64_t first_hour = start / kSecondsPerHour;
    const std::int64_t last_hour = (end - 1) / kSecondsPerHour;
    VmAccum& vm = table.at(name, first_hour);
    vm.first_hour = std::min(vm.first_hour, first_hour);
    vm.last_hour = std::max(vm.last_hour, last_hour);
    for (std::int64_t h = first_hour; h <= last_hour; ++h) {
      const std::int64_t hour_start = h * kSecondsPerHour;
      const std::int64_t overlap = std::min(end, hour_start + kSecondsPerHour) -
                                   std::max(start, hour_start);
      // Time-weighted: a row covering half the hour at rate r contributes
      // r for that half; uncovered time counts as idle via the fixed
      // 1-hour denominator.
      vm.mass[h] += rate * static_cast<double>(overlap);
      vm.weight[h] = static_cast<double>(kSecondsPerHour);
    }
  }
  return table.finish();
}

std::vector<trace::ActivityTrace> fold_dataset(DatasetFormat format, std::istream& in) {
  switch (format) {
    case DatasetFormat::AzureVm: return fold_azure(in);
    case DatasetFormat::GoogleTask: return fold_google(in);
  }
  throw std::invalid_argument("unknown DatasetFormat");
}

std::vector<ColumnSummary> summarize_columns(
    const std::vector<trace::ActivityTrace>& traces) {
  std::vector<ColumnSummary> out;
  out.reserve(traces.size());
  for (const trace::ActivityTrace& t : traces) {
    ColumnSummary s;
    s.name = t.name();
    s.hours = t.size();
    s.mean_activity = t.mean_activity();
    s.idle_fraction = t.idle_fraction();
    s.vm_class = t.classify();
    out.push_back(std::move(s));
  }
  return out;
}

ClassCounts count_classes(const std::vector<ColumnSummary>& columns) {
  ClassCounts counts;
  for (const ColumnSummary& c : columns) {
    switch (c.vm_class) {
      case trace::VmClass::Slmu: ++counts.slmu; break;
      case trace::VmClass::Llmu: ++counts.llmu; break;
      case trace::VmClass::Llmi: ++counts.llmi; break;
    }
  }
  return counts;
}

namespace {

/// The three population profiles the sample slices cycle through.  Hour
/// is absolute; activity is utilization in [0, 1].
double profile_activity(int type, std::int64_t hour, util::Rng& rng) {
  const std::int64_t hour_of_day = hour % 24;
  switch (type % 3) {
    case 0:  // LLMU: busy around the clock
      return std::clamp(0.72 + rng.uniform(-0.12, 0.12), 0.0, 1.0);
    case 1:  // LLMI: a faint 3-hour daily window, near-zero otherwise
      if (hour_of_day >= 9 && hour_of_day < 12) {
        return std::clamp(0.15 + rng.uniform(-0.05, 0.05), 0.0, 1.0);
      }
      return rng.uniform(0.0, 0.002);  // below the idle threshold
    default:  // SLMU: fully busy for its (short) lifetime
      return std::clamp(0.85 + rng.uniform(-0.08, 0.08), 0.0, 1.0);
  }
}

/// Lifetime in seconds for VM `i` under the cycling profile: long-lived
/// for LLMU/LLMI, 1-3 days for SLMU.
std::int64_t lifetime_s(int type, int i, std::int64_t horizon_s) {
  if (type % 3 != 2) return horizon_s;
  return (1 + i % 3) * 24 * kSecondsPerHour;
}

}  // namespace

void write_azure_sample(std::ostream& out, const SampleOptions& opts) {
  util::Rng rng(opts.seed);
  out << "timestamp,vm_id,core_count,avg_cpu\n";
  const std::int64_t horizon = static_cast<std::int64_t>(opts.days) * 24 * kSecondsPerHour;
  const std::int64_t interval = std::max(1, opts.interval_s);
  // Per-VM generators so the row emission order (time-major, like a real
  // export) does not change each VM's jitter stream.
  std::vector<util::Rng> streams;
  std::vector<std::int64_t> ends;
  for (int i = 0; i < opts.vms; ++i) {
    streams.push_back(rng.split());
    ends.push_back(lifetime_s(i, i, horizon));
  }
  char buf[128];
  for (std::int64_t ts = 0; ts < horizon; ts += interval) {
    for (int i = 0; i < opts.vms; ++i) {
      if (ts >= ends[i]) continue;
      util::Rng& s = streams[i];
      const double activity = profile_activity(i, ts / kSecondsPerHour, s);
      const bool dropped = s.bernoulli(0.05);  // exporters lose readings
      if (dropped) continue;
      std::snprintf(buf, sizeof(buf), "%lld,az-%03d,%d,%.2f",
                    static_cast<long long>(ts), i, 2 + 2 * (i % 2), activity * 100.0);
      out << buf << '\n';
    }
  }
}

void write_google_sample(std::ostream& out, const SampleOptions& opts) {
  util::Rng rng(opts.seed);
  out << "start_time,end_time,job_id,task_index,cpu_rate\n";
  const std::int64_t horizon = static_cast<std::int64_t>(opts.days) * 24 * kSecondsPerHour;
  struct Row {
    std::int64_t start, end;
    std::int64_t job;
    int task;
    double rate;
  };
  std::vector<Row> rows;
  for (int i = 0; i < opts.vms; ++i) {
    util::Rng s = rng.split();
    const std::int64_t job = 6250000 + i;
    const std::int64_t end_of_life = lifetime_s(i, i, horizon);
    std::int64_t t = 0;
    while (t < end_of_life) {
      // Segments of 10-50 minutes; LLMI tasks leave idle gaps between
      // segments outside their window, the others run back to back.
      const std::int64_t span = s.uniform_int(600, 3000);
      const std::int64_t end = std::min(t + span, end_of_life);
      const double activity = profile_activity(i, t / kSecondsPerHour, s);
      if (activity > 0.01) {
        rows.push_back(Row{t, end, job, 0, activity});
      }
      t = end;
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.start < b.start; });
  char buf[160];
  for (const Row& r : rows) {
    std::snprintf(buf, sizeof(buf), "%lld,%lld,%lld,%d,%.4f",
                  static_cast<long long>(r.start), static_cast<long long>(r.end),
                  static_cast<long long>(r.job), r.task, r.rate);
    out << buf << '\n';
  }
}

}  // namespace drowsy::replay

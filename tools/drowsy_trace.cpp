// drowsy_trace — raw cluster datasets in, replayable workloads out:
// `convert` folds raw Azure- or Google-style readings into the hourly
// trace CSV that TraceKind::FileReplay consumes (plus a manifest with the
// per-VM SLMU/LLMU/LLMI classification), `stats` digests a converted
// trace, and `sample` writes the deterministic raw slices behind the
// checked-in traces/*.raw.csv fixtures.  `drowsy_trace --help` prints
// every subcommand with its flags, generated from the tables in main().
//
// Determinism: convert and stats are pure functions of their input
// bytes; sample is a pure function of its options.  The manifest is
// dumped through expctl::Json, so its bytes are stable across runs and
// platforms — CI diffs them against golden files.
//
// Full reference (formats, manifest schema, workflow): docs/replay.md.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "expctl/json.hpp"
#include "replay/dataset.hpp"
#include "trace/csv.hpp"
#include "trace/trace.hpp"

namespace rp = drowsy::replay;
namespace cli = drowsy::cli;
namespace tr = drowsy::trace;
using drowsy::expctl::Json;

namespace {

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("write failed: " + path);
}

std::string default_manifest_path(const std::string& out) {
  const std::string suffix = ".csv";
  if (out.size() > suffix.size() &&
      out.compare(out.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return out.substr(0, out.size() - suffix.size()) + ".manifest.json";
  }
  return out + ".manifest.json";
}

Json manifest_json(const std::string& source, rp::DatasetFormat format,
                   const std::vector<rp::ColumnSummary>& columns) {
  const rp::ClassCounts counts = rp::count_classes(columns);
  std::size_t hours_total = 0;
  for (const rp::ColumnSummary& c : columns) hours_total += c.hours;

  Json j = Json::object();
  j.set("source", source);
  j.set("format", rp::to_string(format));
  j.set("vms", static_cast<std::uint64_t>(columns.size()));
  j.set("hours_total", static_cast<std::uint64_t>(hours_total));
  Json cc = Json::object();
  cc.set("slmu", static_cast<std::uint64_t>(counts.slmu));
  cc.set("llmu", static_cast<std::uint64_t>(counts.llmu));
  cc.set("llmi", static_cast<std::uint64_t>(counts.llmi));
  j.set("class_counts", std::move(cc));
  Json cols = Json::array();
  for (const rp::ColumnSummary& c : columns) {
    Json col = Json::object();
    col.set("name", c.name);
    col.set("hours", static_cast<std::uint64_t>(c.hours));
    col.set("mean_activity", c.mean_activity);
    col.set("idle_fraction", c.idle_fraction);
    col.set("class", tr::to_string(c.vm_class));
    cols.push_back(std::move(col));
  }
  j.set("columns", std::move(cols));
  return j;
}

void print_summary_table(const std::vector<rp::ColumnSummary>& columns) {
  std::printf("%-16s %8s %14s %14s %6s\n", "vm", "hours", "mean_activity",
              "idle_fraction", "class");
  for (const rp::ColumnSummary& c : columns) {
    std::printf("%-16s %8zu %14.4f %14.4f %6s\n", c.name.c_str(), c.hours,
                c.mean_activity, c.idle_fraction, tr::to_string(c.vm_class));
  }
  const rp::ClassCounts counts = rp::count_classes(columns);
  std::printf("\n%zu VM(s): %zu SLMU, %zu LLMU, %zu LLMI\n", columns.size(),
              counts.slmu, counts.llmu, counts.llmi);
}

/// Every subcommand's settings; each flag table writes only its own.
struct Options {
  rp::DatasetFormat format = rp::DatasetFormat::AzureVm;
  std::string out_path;
  std::string manifest_path;
  rp::SampleOptions sample;
};

int cmd_convert(const Options& opts, const std::string& input) {
  const std::string manifest_path =
      opts.manifest_path.empty() ? default_manifest_path(opts.out_path) : opts.manifest_path;
  std::ifstream in(input, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + input);
  const std::vector<tr::ActivityTrace> traces = rp::fold_dataset(opts.format, in);
  const auto columns = rp::summarize_columns(traces);

  // Render the manifest before writing either file (save_csv refuses a
  // bad level before it creates its own), and take the CSV back when the
  // manifest cannot be written: a failed convert leaves no file.
  const std::string manifest = manifest_json(input, opts.format, columns).dump() + "\n";
  tr::save_csv(opts.out_path, traces);
  try {
    write_file(manifest_path, manifest);
  } catch (...) {
    std::remove(opts.out_path.c_str());
    throw;
  }

  const rp::ClassCounts counts = rp::count_classes(columns);
  std::printf("%s: %zu VM(s) -> %s (%zu SLMU, %zu LLMU, %zu LLMI; manifest %s)\n",
              input.c_str(), traces.size(), opts.out_path.c_str(), counts.slmu, counts.llmu,
              counts.llmi, manifest_path.c_str());
  return 0;
}

int cmd_stats(const std::string& path) {
  const std::vector<tr::ActivityTrace> traces = tr::load_csv(path);
  print_summary_table(rp::summarize_columns(traces));
  return 0;
}

int cmd_sample(const Options& o, const std::string& format_name) {
  const rp::SampleOptions& opts = o.sample;
  const rp::DatasetFormat format = rp::dataset_format_from_string(format_name);
  std::ostringstream out;
  if (format == rp::DatasetFormat::AzureVm) {
    rp::write_azure_sample(out, opts);
  } else {
    rp::write_google_sample(out, opts);
  }
  write_file(o.out_path, out.str());
  std::printf("%s sample: %d VM(s) x %d day(s), seed %llu -> %s\n",
              rp::to_string(format), opts.vms, opts.days,
              static_cast<unsigned long long>(opts.seed), o.out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using Args = std::vector<std::string>;
  Options o;
  const cli::Flag format{"--format", "azure|google", [&o](const std::string& v) {
                           o.format = rp::dataset_format_from_string(v);
                         }, false, /*required=*/true};
  const std::vector<cli::Command> commands = {
      {"convert", cli::Arity::one, "<raw.csv>",
       {format, cli::text("--out", "<trace.csv>", o.out_path, /*required=*/true),
        cli::text("--manifest", "<m.json>", o.manifest_path)},
       [&o](const Args& a) { return cmd_convert(o, a[0]); }},
      {"stats", cli::Arity::one, "<trace.csv>", {}, [](const Args& a) { return cmd_stats(a[0]); }},
      {"sample", cli::Arity::one, "azure|google",
       {cli::text("--out", "<raw.csv>", o.out_path, /*required=*/true),
        cli::positive("--vms", "N", o.sample.vms), cli::positive("--days", "D", o.sample.days),
        cli::positive("--interval-s", "S", o.sample.interval_s),
        cli::number("--seed", "X", o.sample.seed)},
       [&o](const Args& a) { return cmd_sample(o, a[0]); }},
  };
  return cli::run(argc, argv, "drowsy_trace", commands, "docs/replay.md");
}

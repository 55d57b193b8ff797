#include "replay/replay.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "trace/csv.hpp"
#include "util/hash.hpp"

namespace drowsy::replay {

const trace::ActivityTrace* ReplayFile::find(const std::string& name) const {
  for (const auto& c : columns) {
    if (c.name() == name) return &c;
  }
  return nullptr;
}

namespace {

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return static_cast<bool>(f);
}

std::string read_all_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::string msg = "replay: cannot open trace file '" + path + "'";
    if (const char* root = std::getenv("DROWSY_TRACE_ROOT")) {
      msg += " (also tried under DROWSY_TRACE_ROOT=" + std::string(root) + ")";
    } else {
      msg += " (set DROWSY_TRACE_ROOT to resolve repo-relative paths)";
    }
    throw std::runtime_error(msg);
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return std::move(ss).str();
}

}  // namespace

std::string resolve_trace_path(const std::string& path) {
  if (file_exists(path)) return path;
  if (!path.empty() && path.front() != '/') {
    if (const char* root = std::getenv("DROWSY_TRACE_ROOT")) {
      std::string candidate = std::string(root);
      if (!candidate.empty() && candidate.back() != '/') candidate += '/';
      candidate += path;
      if (file_exists(candidate)) return candidate;
    }
  }
  return path;
}

std::shared_ptr<const ReplayFile> load_replay_file(const std::string& path) {
  // Memo keyed by resolved path, validated by content hash every call:
  // we always re-read the bytes (cheap for trace-sized files) and only
  // reuse the parse when they are unchanged.  This is what makes
  // "same path, edited bytes" an observable cache miss upstream.
  static std::mutex mu;
  static std::unordered_map<std::string, std::shared_ptr<const ReplayFile>> memo;

  const std::string resolved = resolve_trace_path(path);
  const std::string bytes = read_all_bytes(resolved);
  const std::uint64_t hash = util::fnv1a64(bytes);

  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(resolved);
    if (it != memo.end() && it->second->hash == hash) return it->second;
  }

  auto file = std::make_shared<ReplayFile>();
  file->path = resolved;
  file->hash = hash;
  {
    std::istringstream in(bytes);
    try {
      file->columns = trace::read_csv(in);
    } catch (const std::exception& e) {
      throw std::runtime_error("replay: '" + resolved + "': " + e.what());
    }
  }
  bool any = false;
  for (const auto& c : file->columns) any = any || !c.empty();
  if (!any) {
    throw std::runtime_error("replay: '" + resolved + "' has no usable columns (all empty)");
  }

  std::lock_guard<std::mutex> lock(mu);
  auto [it, _] = memo.insert_or_assign(resolved, std::move(file));
  return it->second;
}

trace::ActivityTrace select_column(const ReplayFile& file, const std::string& select,
                                   std::size_t variant, int downsample) {
  const trace::ActivityTrace* col = nullptr;
  if (!select.empty()) {
    col = file.find(select);
    if (col == nullptr) {
      std::string msg = "replay: '" + file.path + "' has no column '" + select + "' (columns:";
      for (const auto& c : file.columns) msg += " " + c.name();
      msg += ")";
      throw std::runtime_error(msg);
    }
  } else {
    col = &file.columns[variant % file.columns.size()];
  }
  if (col->empty()) {
    throw std::runtime_error("replay: '" + file.path + "' column '" + col->name() + "' is empty");
  }
  if (downsample <= 1) return *col;

  const auto& hours = col->hours();
  const std::size_t step = static_cast<std::size_t>(downsample);
  std::vector<double> pooled;
  pooled.reserve((hours.size() + step - 1) / step);
  for (std::size_t i = 0; i < hours.size(); i += step) {
    const std::size_t end = std::min(i + step, hours.size());
    double sum = 0.0;
    for (std::size_t j = i; j < end; ++j) sum += hours[j];
    pooled.push_back(std::clamp(sum / static_cast<double>(end - i), 0.0, 1.0));
  }
  return trace::ActivityTrace(std::move(pooled), col->name());
}

}  // namespace drowsy::replay

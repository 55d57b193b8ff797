// Chrome-trace/Perfetto timeline builder.
//
// Emits the Trace Event Format JSON object ({"traceEvents": [...]}) that
// chrome://tracing and ui.perfetto.dev load directly.  Determinism
// contract: timestamps are *sim time* (milliseconds scaled to the
// format's microseconds), rows are appended in event order by a
// single-threaded run, and rendering goes through expctl::Json — so the
// same (spec, policy, seed) produces byte-identical files at any batch
// thread count.  Wall-clock never appears here; that is EventProfile's
// job and it stays out of deterministic artifacts by design.
//
// Track model: one process (pid 1) per run, one thread row per track.
// Callers name tracks up front (thread_name metadata rows, emitted in
// registration order), then append duration slices ("X") and instants
// ("i") onto them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "expctl/json.hpp"
#include "util/sim_time.hpp"

namespace drowsy::obs {

class TraceWriter {
 public:
  /// Label the whole timeline (process_name metadata row).
  explicit TraceWriter(std::string process_name);

  /// Register a track; returns its tid.  Call before appending events to
  /// it (Perfetto tolerates late metadata, but registration order keeps
  /// the file layout deterministic and the sidebar sorted as declared).
  std::uint32_t add_track(const std::string& name);

  /// Complete slice [start, end) on `track`, named `name`.
  /// `args` (optional) must be an object; it is embedded verbatim.
  void add_slice(std::uint32_t track, const std::string& name, util::SimTime start,
                 util::SimTime end, expctl::Json args = expctl::Json());

  /// Instant event at `at` on `track` (thread-scoped).
  void add_instant(std::uint32_t track, const std::string& name, util::SimTime at,
                   expctl::Json args = expctl::Json());

  [[nodiscard]] std::size_t events() const { return events_.size(); }

  /// Render the full document ({"traceEvents": [...]}, 2-space indent).
  [[nodiscard]] std::string dump() const;

 private:
  [[nodiscard]] expctl::Json event_base(const char* phase, std::uint32_t track,
                                        const std::string& name, util::SimTime at) const;

  std::string process_name_;
  std::uint32_t next_tid_ = 0;
  std::vector<std::pair<std::uint32_t, std::string>> tracks_;
  std::vector<expctl::Json> events_;
};

}  // namespace drowsy::obs

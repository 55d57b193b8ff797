// CSV persistence for activity traces, so benches can export series for
// plotting and tests can round-trip fixtures.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace drowsy::trace {

/// Write traces as columns: header row of names, then one row per hour.
/// Throws std::runtime_error, naming the column and hour, before writing
/// a byte when a level is one read_csv would refuse (not in [0, 1]).
void write_csv(std::ostream& out, const std::vector<ActivityTrace>& traces);

/// Save to a file.  Throws std::runtime_error on I/O failure, and on a
/// level write_csv refuses without creating the file.
void save_csv(const std::string& path, const std::vector<ActivityTrace>& traces);

/// Parse the column format produced by write_csv.  Every non-empty cell
/// must parse whole to a finite activity level in [0, 1].  Throws
/// std::runtime_error on malformed input, naming the row and column.
[[nodiscard]] std::vector<ActivityTrace> read_csv(std::istream& in);

/// Load from a file.  Throws std::runtime_error on I/O failure.
[[nodiscard]] std::vector<ActivityTrace> load_csv(const std::string& path);

}  // namespace drowsy::trace

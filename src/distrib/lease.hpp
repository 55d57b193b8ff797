// Claim leases: the liveness contract between a worker and the queue.
//
// The queue daemon claims a manifest by renaming it into
// claimed/<worker>/ — exclusive forever, which is exactly the problem
// when the worker dies: nothing in the filesystem says how long
// "forever" was supposed to be.  A lease makes the contract explicit.
// Next to every claimed manifest the owner keeps a small lease file
//
//   claimed/<worker>/<name>.lease.json
//   {"schema": "drowsy-claim-lease-v1", "worker_id": ..., "manifest":
//    ..., "granted_unix_ms": ..., "renewed_unix_ms": ..., "ttl_s": ...}
//
// written *before* the claim rename (so no claim is ever visible without
// one) and rewritten (atomic tmp+rename) after every finished journal
// row.  The lease file's *mtime* is the renewal instant; `ttl_s` is how
// long the owner may go silent before any reaper may re-enqueue the
// claim.  The embedded timestamps are for humans reading the file.
//
// The lease is the only liveness evidence.  A claim whose lease is
// missing or unreadable has no owner vouching for it and is reapable at
// once; the worker's metrics snapshot and the manifest's own mtime say
// nothing about liveness.
//
// list_claims() is the one scanner everything liveness-related shares:
// `shard status` renders it and the reaper (reaper.hpp) acts on it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expctl/json.hpp"

namespace drowsy::distrib {

/// One claim lease, as serialized to <name>.lease.json.
struct Lease {
  std::string worker_id;
  std::string manifest;  ///< basename of the claimed manifest
  std::uint64_t granted_unix_ms = 0;  ///< first grant (claim/resume time)
  std::uint64_t renewed_unix_ms = 0;  ///< last renewal (matches file mtime)
  double ttl_s = 0.0;                 ///< max silent seconds before reapable
};

/// {"schema": "drowsy-claim-lease-v1", ...} — field order fixed.
[[nodiscard]] expctl::Json to_json(const Lease& lease);
/// Strict inverse (schema checked, every field required, ttl_s > 0).
/// Throws DistribError on malformed input.
[[nodiscard]] Lease lease_from_json(const expctl::Json& j);

/// "<stem>.lease.json" beside "<stem>.json" (the claimed manifest).
[[nodiscard]] std::string lease_path_for(const std::string& manifest_path);

/// Atomically replace `path` with the rendered lease (tmp + rename), so
/// a reaper never reads a torn lease.  Throws DistribError on I/O
/// failure.
void write_lease_file(const std::string& path, const Lease& lease);

/// Read + parse one lease file.  Throws DistribError on I/O or parse
/// failure.
[[nodiscard]] Lease read_lease_file(const std::string& path);

/// One manifest sitting in some worker's claimed/ directory, with its
/// lease resolved.
struct ClaimInfo {
  std::string manifest_path;  ///< <queue>/claimed/<worker>/<name>.json
  std::string worker_id;
  bool has_lease = false;     ///< false when the lease is missing or unreadable
  double age_s = 0.0;         ///< seconds since the lease was renewed; 0 without one
  double lease_ttl_s = 0.0;   ///< 0 without a lease

  /// Seconds of silence still allowed: negative once the lease has
  /// expired, 0 without a lease.
  [[nodiscard]] double lease_remaining_s() const {
    return has_lease ? lease_ttl_s - age_s : 0.0;
  }
  /// Reapable: the lease has run out, or there is none.
  [[nodiscard]] bool expired() const { return !has_lease || age_s > lease_ttl_s; }
};

/// Scan <queue>/claimed/*/ for every claimed manifest, in path order.
/// Only files that parse as shard manifests count (journals, lease
/// files and stray files are ignored).  An unreadable lease file is
/// treated as absent (and logged), which makes its claim reapable.  A
/// queue without a claimed/ directory has no claims; a missing queue
/// root throws DistribError.
[[nodiscard]] std::vector<ClaimInfo> list_claims(const std::string& queue_dir);

}  // namespace drowsy::distrib

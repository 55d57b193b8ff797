#include "distrib/lease.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "distrib/shard.hpp"
#include "expctl/spec_io.hpp"
#include "scenario/batch_runner.hpp"
#include "util/log.hpp"

namespace drowsy::distrib {

namespace ec = drowsy::expctl;
namespace fs = std::filesystem;
namespace sc = drowsy::scenario;

namespace {

constexpr const char* kLeaseSchema = "drowsy-claim-lease-v1";

}  // namespace

ec::Json to_json(const Lease& lease) {
  ec::Json j = ec::Json::object();
  j.set("schema", kLeaseSchema);
  j.set("worker_id", lease.worker_id);
  j.set("manifest", lease.manifest);
  j.set("granted_unix_ms", lease.granted_unix_ms);
  j.set("renewed_unix_ms", lease.renewed_unix_ms);
  j.set("ttl_s", lease.ttl_s);
  return j;
}

Lease lease_from_json(const ec::Json& j) {
  if (!j.is_object()) throw DistribError("lease: expected an object");
  try {
    ec::check_keys(j, "lease",
                   {"schema", "worker_id", "manifest", "granted_unix_ms",
                    "renewed_unix_ms", "ttl_s"});
    if (j.at("schema").as_string() != kLeaseSchema) {
      throw DistribError("lease: unknown schema \"" + j.at("schema").as_string() +
                         "\" (want " + std::string(kLeaseSchema) + ")");
    }
    Lease lease;
    lease.worker_id = j.at("worker_id").as_string();
    lease.manifest = j.at("manifest").as_string();
    lease.granted_unix_ms = j.at("granted_unix_ms").as_uint();
    lease.renewed_unix_ms = j.at("renewed_unix_ms").as_uint();
    lease.ttl_s = j.at("ttl_s").as_double();
    if (lease.worker_id.empty()) throw DistribError("lease: worker_id must be non-empty");
    if (lease.manifest.empty()) throw DistribError("lease: manifest must be non-empty");
    if (!(lease.ttl_s > 0.0)) throw DistribError("lease: ttl_s must be positive");
    return lease;
  } catch (const ec::JsonError& e) {
    throw DistribError(std::string("lease: ") + e.what());
  } catch (const ec::SpecError& e) {
    throw DistribError(e.what());  // already prefixed "lease: ..."
  }
}

std::string lease_path_for(const std::string& manifest_path) {
  const fs::path manifest(manifest_path);
  return (manifest.parent_path() / (manifest.stem().string() + ".lease.json"))
      .string();
}

void write_lease_file(const std::string& path, const Lease& lease) {
  const std::string tmp = path + ".tmp";
  if (!sc::write_file(tmp, to_json(lease).dump(2))) {
    throw DistribError("cannot write lease file " + tmp);
  }
  std::error_code ec_rename;
  fs::rename(tmp, path, ec_rename);
  if (ec_rename) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw DistribError("cannot commit lease file " + path + ": " +
                       ec_rename.message());
  }
}

Lease read_lease_file(const std::string& path) {
  try {
    return lease_from_json(ec::Json::parse(ec::read_file(path)));
  } catch (const ec::JsonError& e) {
    throw DistribError("lease " + path + ": " + e.what());
  } catch (const ec::SpecError& e) {
    throw DistribError("lease " + path + ": " + e.what());
  }
}

std::vector<ClaimInfo> list_claims(const std::string& queue_dir) {
  const fs::path root(queue_dir);
  if (!fs::is_directory(root)) {
    throw DistribError("queue directory " + root.string() + " does not exist");
  }
  std::vector<ClaimInfo> claims;
  const fs::path claimed = root / "claimed";
  if (!fs::is_directory(claimed)) return claims;  // nothing ever claimed
  const auto now = fs::file_time_type::clock::now();
  for (const fs::directory_entry& worker : fs::directory_iterator(claimed)) {
    if (!worker.is_directory()) continue;
    for (const fs::directory_entry& entry : fs::directory_iterator(worker.path())) {
      if (!entry.is_regular_file() || entry.path().extension() != ".json") continue;
      const std::string name = entry.path().filename().string();
      if (name.ends_with(".lease.json")) continue;
      try {
        static_cast<void>(
            manifest_from_json(ec::Json::parse(ec::read_file(entry.path().string()))));
      } catch (const std::exception&) {
        continue;  // a journal or stray file, not a claim
      }
      ClaimInfo claim;
      claim.manifest_path = entry.path().string();
      claim.worker_id = worker.path().filename().string();

      // The lease beside the manifest: its mtime is the renewal instant.
      // Unreadable (torn, foreign, wrong schema) counts as absent, which
      // makes the claim reapable — a broken lease must surface the
      // claim, never hide it.
      const std::string lease_path = lease_path_for(claim.manifest_path);
      std::error_code ec_lease;
      const auto renewed = fs::last_write_time(lease_path, ec_lease);
      if (!ec_lease) {
        try {
          claim.lease_ttl_s = read_lease_file(lease_path).ttl_s;
          claim.has_lease = true;
          claim.age_s = std::chrono::duration<double>(now - renewed).count();
        } catch (const std::exception& e) {
          DROWSY_LOG_WARN("lease", "ignoring unreadable lease %s: %s",
                          lease_path.c_str(), e.what());
        }
      }
      claims.push_back(std::move(claim));
    }
  }
  std::sort(claims.begin(), claims.end(),
            [](const ClaimInfo& a, const ClaimInfo& b) {
              return a.manifest_path < b.manifest_path;
            });
  return claims;
}

}  // namespace drowsy::distrib

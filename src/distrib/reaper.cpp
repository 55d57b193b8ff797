#include "distrib/reaper.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "distrib/fault.hpp"
#include "distrib/journal.hpp"
#include "expctl/spec_io.hpp"
#include "obs/snapshot.hpp"
#include "scenario/batch_runner.hpp"
#include "util/log.hpp"

namespace drowsy::distrib {

namespace ec = drowsy::expctl;
namespace fs = std::filesystem;
namespace sc = drowsy::scenario;

namespace {

void emit(const ReapOptions& options, const std::string& line) {
  if (options.on_event) options.on_event(line);
}

/// Why a claim is reapable, for progress lines.
std::string why_expired(const ClaimInfo& claim) {
  return claim.has_lease ? "silent " + std::to_string(claim.age_s) + " s" : "no lease";
}

/// Append one line to the reap journal with O_APPEND semantics: the
/// whole row lands in a single write(2), so concurrent reapers never
/// interleave within a line.  Advisory — an unwritable reap journal
/// must not undo a reap that already committed, so failure only warns.
void append_reap_row(const fs::path& journal, const ReapRecord& record) {
  const std::string line = to_json(record).dump(0) + "\n";
  const int fd = ::open(journal.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    DROWSY_LOG_WARN("reaper", "cannot open reap journal %s: %s",
                    journal.string().c_str(), std::strerror(errno));
    return;
  }
  const ssize_t wrote = ::write(fd, line.data(), line.size());
  if (wrote < 0 || static_cast<std::size_t>(wrote) != line.size()) {
    DROWSY_LOG_WARN("reaper", "short write to reap journal %s",
                    journal.string().c_str());
  }
  ::close(fd);
}

}  // namespace

ec::Json to_json(const ReapRecord& record) {
  ec::Json j = ec::Json::object();
  j.set("manifest", record.manifest);
  j.set("worker_id", record.worker_id);
  j.set("reaper_id", record.reaper_id);
  j.set("age_s", record.age_s);
  j.set("rows_preserved", static_cast<std::uint64_t>(record.rows_preserved));
  j.set("reaped_unix_ms", record.reaped_unix_ms);
  return j;
}

ReapRecord reap_record_from_json(const ec::Json& j) {
  if (!j.is_object()) throw DistribError("reap record: expected an object");
  try {
    ec::check_keys(j, "reap record",
                   {"manifest", "worker_id", "reaper_id", "age_s",
                    "rows_preserved", "reaped_unix_ms"});
    ReapRecord record;
    record.manifest = j.at("manifest").as_string();
    record.worker_id = j.at("worker_id").as_string();
    record.reaper_id = j.at("reaper_id").as_string();
    record.age_s = j.at("age_s").as_double();
    record.rows_preserved = static_cast<std::size_t>(j.at("rows_preserved").as_uint());
    record.reaped_unix_ms = j.at("reaped_unix_ms").as_uint();
    return record;
  } catch (const ec::JsonError& e) {
    throw DistribError(std::string("reap record: ") + e.what());
  } catch (const ec::SpecError& e) {
    throw DistribError(e.what());  // already prefixed "reap record: ..."
  }
}

ReapOutcome reap_queue(const ReapOptions& options) {
  const fs::path root(options.queue_dir);
  if (!fs::is_directory(root)) {
    throw DistribError("queue directory " + root.string() + " does not exist");
  }
  if (options.reaper_id.empty() ||
      options.reaper_id.find('/') != std::string::npos) {
    throw DistribError("reaper id must be non-empty and contain no '/'");
  }
  const fs::path reaped_dir = root / "reaped";
  ReapOutcome outcome;
  for (const ClaimInfo& claim : list_claims(options.queue_dir)) {
    ++outcome.examined;
    if (!claim.expired()) continue;
    if (!options.skip_worker.empty() && claim.worker_id == options.skip_worker) {
      emit(options, "skipping own claim " +
                        fs::path(claim.manifest_path).filename().string());
      continue;
    }
    ++outcome.expired;
    const fs::path manifest(claim.manifest_path);
    const fs::path claimed_journal = journal_path_for(claim.manifest_path);
    if (options.dry_run) {
      ++outcome.reaped;
      emit(options, "would reap " + manifest.filename().string() + " from " +
                        claim.worker_id + " (" + why_expired(claim) + ")");
      continue;
    }

    // 1. Snapshot the journal's valid prefix onto a fresh inode.  A
    // late-but-alive owner keeps appending to the *old* inode, which
    // nobody will read again.
    std::size_t rows_preserved = 0;
    fs::path tmp;
    try {
      const JournalContents contents = read_journal(claimed_journal.string());
      if (!contents.entries.empty()) {
        const std::string bytes = ec::read_file(claimed_journal.string());
        std::error_code ec_mkdir;
        fs::create_directories(reaped_dir, ec_mkdir);
        tmp = reaped_dir /
              (manifest.stem().string() + ".journal.reaptmp-" + options.reaper_id);
        if (!sc::write_file(tmp.string(), bytes.substr(0, contents.valid_bytes))) {
          throw DistribError("cannot write journal snapshot " + tmp.string());
        }
        rows_preserved = contents.entries.size();
      }
    } catch (const std::exception& e) {
      // An unreadable journal costs re-execution, never the reap: the
      // claim must still return to the queue.
      DROWSY_LOG_WARN("reaper", "discarding journal of %s: %s",
                      manifest.string().c_str(), e.what());
      tmp.clear();
      rows_preserved = 0;
    }

    DROWSY_CRASH_POINT("reaper.before_commit");

    // 2. Commit: one atomic rename back to the queue root.  Exactly one
    // of N racing reapers wins; an owner archiving the task right now
    // makes us lose the same way.
    std::error_code ec_commit;
    fs::rename(manifest, root / manifest.filename(), ec_commit);
    if (ec_commit) {
      std::error_code ignored;
      if (!tmp.empty()) fs::remove(tmp, ignored);
      emit(options, "lost race for " + manifest.filename().string() +
                        " — skipping");
      continue;
    }

    DROWSY_CRASH_POINT("reaper.after_commit");

    // 3. Publish the journal snapshot beside the re-enqueued manifest
    // for the next owner to adopt.
    if (!tmp.empty()) {
      std::error_code ec_journal;
      fs::rename(tmp, root / claimed_journal.filename(), ec_journal);
      if (ec_journal) {
        DROWSY_LOG_WARN("reaper", "cannot publish journal snapshot for %s: %s",
                        manifest.filename().string().c_str(),
                        ec_journal.message().c_str());
        std::error_code ignored;
        fs::remove(tmp, ignored);
        rows_preserved = 0;
      }
    }

    DROWSY_CRASH_POINT("reaper.after_journal");

    // 4. Clean up the dead claim and record the reap.
    std::error_code ignored;
    fs::remove(claimed_journal, ignored);
    fs::remove(lease_path_for(claim.manifest_path), ignored);
    fs::create_directories(reaped_dir, ignored);
    ReapRecord record;
    record.manifest = manifest.filename().string();
    record.worker_id = claim.worker_id;
    record.reaper_id = options.reaper_id;
    record.age_s = claim.age_s;
    record.rows_preserved = rows_preserved;
    record.reaped_unix_ms = obs::wall_clock_unix_ms();
    append_reap_row(reaped_dir / "reap.journal.jsonl", record);
    ++outcome.reaped;
    outcome.rows_preserved += rows_preserved;
    emit(options, "reaped " + record.manifest + " from " + record.worker_id + " (" +
                      why_expired(claim) + ", " + std::to_string(rows_preserved) +
                      " rows preserved)");
  }
  return outcome;
}

std::vector<ReapRecord> read_reap_journal(const std::string& queue_dir) {
  std::vector<ReapRecord> records;
  const fs::path journal = fs::path(queue_dir) / "reaped" / "reap.journal.jsonl";
  std::FILE* f = std::fopen(journal.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return records;
    throw DistribError("cannot open reap journal " + journal.string() + ": " +
                       std::strerror(errno));
  }
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  const bool error = std::ferror(f) != 0;
  std::fclose(f);
  if (error) throw DistribError("read error on reap journal " + journal.string());

  std::size_t offset = 0;
  while (offset < text.size()) {
    const std::size_t newline = text.find('\n', offset);
    if (newline == std::string::npos) break;  // torn tail: reaper died mid-append
    const std::string_view line(text.data() + offset, newline - offset);
    offset = newline + 1;
    if (line.empty()) continue;
    try {
      records.push_back(reap_record_from_json(ec::Json::parse(line)));
    } catch (const ec::JsonError&) {
      if (offset < text.size()) {
        throw DistribError("malformed reap journal line in " + journal.string());
      }
      break;  // torn-but-newline-terminated tail; tolerate like the tail above
    }
  }
  return records;
}

}  // namespace drowsy::distrib

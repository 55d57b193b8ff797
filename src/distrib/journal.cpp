#include "distrib/journal.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "distrib/fault.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"

namespace drowsy::distrib {

namespace ec = drowsy::expctl;

ec::Json to_json(const JournalEntry& entry) {
  ec::Json j = ec::Json::object();
  j.set("index", static_cast<std::uint64_t>(entry.index));
  j.set("spec_hash", ec::hex64(entry.key.spec_hash));
  j.set("policy", entry.key.policy);
  j.set("seed", entry.key.seed);
  j.set("result", ec::to_json(entry.result));
  j.set("wall_ms", entry.wall_ms);
  return j;
}

JournalEntry journal_entry_from_json(const ec::Json& j) {
  if (!j.is_object()) throw DistribError("journal row: expected an object");
  try {
    ec::check_keys(j, "journal row",
                   {"index", "spec_hash", "policy", "seed", "result", "wall_ms"});
  } catch (const ec::SpecError& e) {
    throw DistribError(e.what());  // already prefixed "journal row: ..."
  }
  try {
    JournalEntry entry;
    entry.index = static_cast<std::size_t>(j.at("index").as_uint());
    entry.key.spec_hash = ec::parse_hex64(j.at("spec_hash").as_string());
    entry.key.policy = j.at("policy").as_string();
    entry.key.seed = j.at("seed").as_uint();
    entry.result = ec::run_result_from_json(j.at("result"));
    entry.wall_ms = j.at("wall_ms").as_double();
    if (entry.wall_ms < 0.0) {
      throw DistribError("journal row: wall_ms must be non-negative");
    }
    // The row's own (policy, seed) must agree with the embedded result —
    // a mismatch means the journal was hand-edited or mis-assembled.
    if (entry.key.policy != entry.result.policy || entry.key.seed != entry.result.seed) {
      throw DistribError("journal row: key (" + entry.key.policy + ", " +
                         std::to_string(entry.key.seed) +
                         ") disagrees with its embedded result (" + entry.result.policy +
                         ", " + std::to_string(entry.result.seed) + ")");
    }
    return entry;
  } catch (const ec::JsonError& e) {
    throw DistribError(std::string("journal row: ") + e.what());
  } catch (const ec::SpecError& e) {
    throw DistribError(std::string("journal row: ") + e.what());
  }
}

std::string journal_path_for(const std::string& manifest_path) {
  const std::filesystem::path manifest(manifest_path);
  return (manifest.parent_path() / (manifest.stem().string() + ".journal.jsonl")).string();
}

JournalContents read_journal(const std::string& path) {
  JournalContents contents;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    // Only a genuinely absent file means "fresh shard".  Any other
    // failure (permissions after a cross-machine copy, fd exhaustion)
    // must not masquerade as an empty journal — resume would silently
    // re-run completed work and the writer could truncate it.
    if (errno == ENOENT) return contents;
    throw DistribError("cannot open journal " + path + ": " + std::strerror(errno));
  }
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  const bool error = std::ferror(f) != 0;
  std::fclose(f);
  if (error) throw DistribError("read error on journal " + path);

  std::size_t offset = 0;
  std::size_t line_no = 0;
  while (offset < text.size()) {
    ++line_no;
    const std::size_t newline = text.find('\n', offset);
    const bool has_newline = newline != std::string::npos;
    const std::string_view line(text.data() + offset,
                                (has_newline ? newline : text.size()) - offset);
    bool parsed = false;
    if (has_newline && !line.empty()) {
      try {
        contents.entries.push_back(journal_entry_from_json(ec::Json::parse(line)));
        parsed = true;
      } catch (const ec::JsonError&) {
        parsed = false;  // classified below
      }
    }
    if (parsed) {
      offset = newline + 1;
      contents.valid_bytes = offset;
      continue;
    }
    // An unparsable or newline-less line is a legitimate torn tail only
    // at the very end of the file.  (journal_entry_from_json's own
    // DistribErrors propagate: those lines parsed as JSON but carry wrong
    // content, which truncation did not cause.)
    const std::size_t next = has_newline ? newline + 1 : text.size();
    if (next < text.size()) {
      throw DistribError(path + ":" + std::to_string(line_no) +
                         ": malformed journal line followed by further rows"
                         " (not a torn tail — refusing to guess)");
    }
    contents.truncated_tail = true;
    break;
  }
  return contents;
}

JournalWriter::JournalWriter(const std::string& path, std::size_t valid_bytes)
    : path_(path) {
  // "a" would ignore seeks; r+ lets us drop a torn tail first.  The file
  // may not exist yet — create it then, but only on ENOENT: creating
  // ("wb" truncates!) on any other open failure would destroy an
  // existing journal that was merely unreadable for a moment.
  file_ = std::fopen(path.c_str(), "r+b");
  if (file_ == nullptr) {
    if (errno == ENOENT && valid_bytes == 0) {
      file_ = std::fopen(path.c_str(), "wb");
    } else if (errno == ENOENT) {
      // The caller read rows from this journal moments ago.
      throw DistribError("journal " + path + " vanished between read and append");
    }
    if (file_ == nullptr) {
      throw DistribError("cannot open journal " + path + ": " + std::strerror(errno));
    }
    return;
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    std::fclose(file_);
    throw DistribError("cannot seek journal " + path);
  }
  const long size = std::ftell(file_);
  if (size < 0 || static_cast<std::size_t>(size) < valid_bytes) {
    std::fclose(file_);
    throw DistribError("journal " + path + " shrank below its valid prefix");
  }
  if (static_cast<std::size_t>(size) > valid_bytes) {
    std::fflush(file_);
    if (ftruncate(fileno(file_), static_cast<off_t>(valid_bytes)) != 0) {
      std::fclose(file_);
      throw DistribError("cannot truncate torn tail of journal " + path);
    }
  }
  if (std::fseek(file_, static_cast<long>(valid_bytes), SEEK_SET) != 0) {
    std::fclose(file_);
    throw DistribError("cannot seek journal " + path);
  }
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void JournalWriter::append(const JournalEntry& entry) {
  const std::string line = to_json(entry).dump(0) + "\n";
  // journal.torn_append stages its own damage before dying: half the row
  // reaches the file (flushed, so the bytes really land) and the process
  // is gone — the exact on-disk state of a worker killed mid-write(2).
  // A plain crash point could only die before or after the whole append.
  if (fault::triggered("journal.torn_append")) {
    static_cast<void>(std::fwrite(line.data(), 1, line.size() / 2, file_));
    static_cast<void>(std::fflush(file_));
    fault::die("journal.torn_append");
  }
  const std::size_t written = std::fwrite(line.data(), 1, line.size(), file_);
  if (written != line.size() || std::fflush(file_) != 0) {
    throw DistribError("short write to journal " + path_);
  }
  DROWSY_CRASH_POINT("journal.after_append");
}

}  // namespace drowsy::distrib

// Memoized trace materialization for sweeps.
//
// A (TraceSpec, effective seed) pair fully determines the generated
// ActivityTrace, and a sweep replays the same pair many times: every
// policy arm of a (scenario, seed) replicate regenerates the identical
// fleet of traces.  TraceCache materializes each distinct pair once and
// hands out shared read-only copies, so an 11-scenario x 3-policy batch
// synthesizes each year-long trace once instead of three times.
//
// Residency: a batch that knows its jobs up front plan()s them, which
// counts each key's uses; the get() that spends a key's last planned use
// drops the entry, and the VMs that got it keep the trace alive only
// until their runs end.  A batch therefore holds the traces of the jobs
// in flight, not of the whole grid, and loses no hit.  An unplanned get()
// keeps its entry until the cache is destroyed.
//
// Determinism: the cache stores exactly what materialize() would have
// produced (same spec, same effective seed), so routing build() through
// it cannot change any run's results — cached and uncached batches are
// bit-identical.  Thread safety: get() may be called concurrently from
// BatchRunner workers.  Concurrent misses on one key wait for a single
// build; if it throws, every waiter gets the exception and the entry is
// erased.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "scenario/scenario.hpp"
#include "trace/trace.hpp"

namespace drowsy::scenario {

/// Value-equality over every generator knob of a TraceSpec plus the
/// effective seed (spec.seed when pinned, else the caller's fallback).
///
/// FileReplay specs are keyed by `content_hash` of the file's bytes —
/// not by path — so the same slice reached via two paths shares one
/// entry, and editing the file between get() calls is a miss rather
/// than a stale hit.  Their seed is normalized to 0 (replay ignores
/// seeds; per-member fallback seeds must not defeat the memo).
struct TraceKey {
  TraceSpec spec;                  ///< spec with seed normalized to `seed`
  std::uint64_t seed = 0;          ///< the seed materialize() will actually use
  std::uint64_t content_hash = 0;  ///< FileReplay: hash of file bytes; else 0

  [[nodiscard]] bool operator==(const TraceKey& other) const;
};

struct TraceKeyHash {
  [[nodiscard]] std::size_t operator()(const TraceKey& key) const;
};

/// Thread-safe memo table over materialize().
class TraceCache {
 public:
  TraceCache() = default;
  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

  /// Counts one planned use of each trace build(spec, policy, seed, this)
  /// will get(), and returns their keys in VM order.  Each distinct replay
  /// file is read once per cache.  A VM whose key cannot be computed (its
  /// replay file does not load) is left out, so its build() throws from
  /// get() exactly as without a plan; an invalid spec plans nothing.
  std::vector<TraceKey> plan(const ScenarioSpec& spec, std::uint64_t seed);

  /// The trace materialize(spec, fallback_seed) would return, built at
  /// most once per distinct (spec, effective seed) while its entry lives.
  /// The returned pointer owns the trace, so it outlives the entry.
  [[nodiscard]] std::shared_ptr<const trace::ActivityTrace> get(
      const TraceSpec& spec, std::uint64_t fallback_seed);

  [[nodiscard]] std::size_t size() const;  ///< entries held, in-flight builds included
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;  ///< completed builds

 private:
  using TracePtr = std::shared_ptr<const trace::ActivityTrace>;

  mutable std::mutex mutex_;
  std::unordered_map<TraceKey, std::shared_future<TracePtr>, TraceKeyHash> entries_;
  std::unordered_map<TraceKey, std::size_t, TraceKeyHash> uses_;  ///< planned gets to come
  /// plan()'s replay path -> content hash; nullopt when the file does not load.
  std::unordered_map<std::string, std::optional<std::uint64_t>> replay_hashes_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace drowsy::scenario

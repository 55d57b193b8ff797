#include "scenario/trace_cache.hpp"

#include "replay/replay.hpp"
#include "util/hash.hpp"

namespace drowsy::scenario {

bool TraceKey::operator==(const TraceKey& other) const {
  const TraceSpec& a = spec;
  const TraceSpec& b = other.spec;
  // Deliberately no `a.path == b.path`: for FileReplay the content hash
  // *is* the file's identity, so one slice reached via two paths (say,
  // relative and DROWSY_TRACE_ROOT-resolved) shares a single entry.
  return seed == other.seed && content_hash == other.content_hash &&
         a.kind == b.kind && a.years == b.years && a.noise == b.noise &&
         a.level == b.level && a.hour == b.hour && a.span_hours == b.span_hours &&
         a.period_hours == b.period_hours && a.variant == b.variant &&
         a.select == b.select && a.downsample == b.downsample;
}

std::size_t TraceKeyHash::operator()(const TraceKey& key) const {
  // Chain every knob through the seed mixer; doubles hash by bit pattern,
  // which is exact for the declarative values specs carry.
  const auto bits = [](double v) {
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    __builtin_memcpy(&u, &v, sizeof(u));
    return u;
  };
  std::uint64_t h = mix_seed(key.seed, static_cast<std::uint64_t>(key.spec.kind));
  h = mix_seed(h, key.spec.years);
  h = mix_seed(h, bits(key.spec.noise));
  h = mix_seed(h, bits(key.spec.level));
  h = mix_seed(h, static_cast<std::uint64_t>(key.spec.hour));
  h = mix_seed(h, static_cast<std::uint64_t>(key.spec.span_hours));
  h = mix_seed(h, static_cast<std::uint64_t>(key.spec.period_hours));
  h = mix_seed(h, key.spec.variant);
  h = mix_seed(h, key.content_hash);
  h = mix_seed(h, util::fnv1a64(key.spec.select));
  h = mix_seed(h, static_cast<std::uint64_t>(key.spec.downsample));
  return static_cast<std::size_t>(h);
}

namespace {

/// The key get(spec, fallback_seed) files materialize(spec, fallback_seed)
/// under; plan() computes the same keys through it.  `content_hash` is
/// the hash of a FileReplay spec's file bytes; other kinds ignore it.
TraceKey trace_key(const TraceSpec& spec, std::uint64_t fallback_seed,
                   std::uint64_t content_hash) {
  TraceKey key{spec, spec.seed != 0 ? spec.seed : fallback_seed, 0};
  if (spec.kind == TraceKind::FileReplay) {
    // Replay ignores seeds, so normalize them away — otherwise every VM's
    // distinct fallback seed would be a guaranteed miss.
    key.seed = 0;
    key.content_hash = content_hash;
  }
  key.spec.seed = key.seed;  // normalize so pinned and fallback forms collide
  return key;
}

}  // namespace

std::vector<TraceKey> TraceCache::plan(const ScenarioSpec& spec, std::uint64_t seed) {
  std::vector<TraceKey> keys;
  // build() throws before its first get().
  if (!spec.validate().empty()) return keys;
  std::lock_guard<std::mutex> lock(mutex_);
  for_each_vm(spec, seed, [&](const VmGroup&, int, const TraceSpec& workload,
                              std::uint64_t fallback) {
    std::uint64_t hash = 0;
    if (workload.kind == TraceKind::FileReplay) {
      auto [it, inserted] = replay_hashes_.try_emplace(workload.path);
      if (inserted) {
        try {
          it->second = replay::load_replay_file(workload.path)->hash;
        } catch (const std::exception&) {
          // Left unplanned: the job's own get() throws the load error.
        }
      }
      if (!it->second) return;
      hash = *it->second;
    }
    keys.push_back(trace_key(workload, fallback, hash));
  });
  for (const TraceKey& key : keys) ++uses_[key];
  return keys;
}

std::shared_ptr<const trace::ActivityTrace> TraceCache::get(const TraceSpec& spec,
                                                            std::uint64_t fallback_seed) {
  // The file load happens *before* the lookup because the key is the
  // content hash: editing the file between calls must land in the miss
  // path.
  std::shared_ptr<const replay::ReplayFile> file;
  if (spec.kind == TraceKind::FileReplay) file = replay::load_replay_file(spec.path);
  const TraceKey key = trace_key(spec, fallback_seed, file ? file->hash : 0);

  std::promise<TracePtr> promise;  // fulfilled only when this call builds
  std::shared_future<TracePtr> trace;
  bool build = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (inserted) {
      build = true;
      it->second = promise.get_future().share();
    } else {
      ++hits_;
    }
    trace = it->second;
    if (auto use = uses_.find(key); use != uses_.end() && --use->second == 0) {
      uses_.erase(use);
      entries_.erase(it);  // the last planned use: only its getters hold the trace now
    }
  }
  if (build) {
    // Materialize outside the lock: trace synthesis is the expensive part
    // and must not serialize the batch workers.  Concurrent gets of this
    // key wait on `trace` instead of building a duplicate.
    try {
      promise.set_value(std::make_shared<const trace::ActivityTrace>(
          file ? replay::select_column(*file, key.spec.select, key.spec.variant,
                                       key.spec.downsample)
               : materialize(key.spec, key.seed)));
    } catch (...) {
      promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(mutex_);
      entries_.erase(key);
      throw;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
  }
  return trace.get();
}

std::size_t TraceCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t TraceCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t TraceCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace drowsy::scenario

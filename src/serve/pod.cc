#include "serve/pod.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace ifsketch::serve {

namespace {

// Default pod= label: process-unique creation ordinal, which matches
// router pod indices when pods are created in index order.
std::string NextPodLabel() {
  static std::atomic<std::uint64_t> next{0};
  return std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

SketchPod::SketchPod(std::size_t byte_budget, obs::MetricsRegistry* registry,
                     std::string label)
    : registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Default()),
      label_(label.empty() ? NextPodLabel() : std::move(label)),
      byte_budget_(byte_budget) {}

SketchPod::EntryMetrics SketchPod::ResolveMetrics(
    const std::string& name) const {
  auto series = [this, &name](const char* base) {
    return obs::LabeledName2(base, "pod", label_, "sketch", name);
  };
  EntryMetrics m;
  m.hits = registry_->GetCounter(series("serve_sketch_hits_total"));
  m.loads = registry_->GetCounter(series("serve_sketch_loads_total"));
  m.bypasses = registry_->GetCounter(series("serve_sketch_bypasses_total"));
  m.duplicate_loads =
      registry_->GetCounter(series("serve_sketch_duplicate_loads_total"));
  m.evictions =
      registry_->GetCounter(series("serve_sketch_evictions_total"));
  m.queries = registry_->GetCounter(series("serve_sketch_queries_total"));
  m.publishes =
      registry_->GetCounter(series("serve_sketch_publishes_total"));
  m.epoch = registry_->GetGauge(series("serve_sketch_epoch"));
  return m;
}

bool SketchPod::AddSketch(const std::string& name, const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.path = path;
  entry.metrics = ResolveMetrics(name);
  return catalog_.emplace(name, std::move(entry)).second;
}

bool SketchPod::AddStream(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.metrics = ResolveMetrics(name);
  return catalog_.emplace(name, std::move(entry)).second;
}

std::uint64_t SketchPod::Publish(const std::string& name,
                                 std::shared_ptr<const Engine> engine,
                                 std::uint64_t rows_seen) {
  Retired retired;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = catalog_[name];  // auto-registers with an empty path
  if (entry.metrics.hits == nullptr) entry.metrics = ResolveMetrics(name);
  const std::size_t bytes = engine->resident_bytes();
  resident_bytes_ -= entry.bytes;
  // The old snapshot is retired exactly like an eviction victim:
  // in-flight queries keep it alive until they finish, and if the pod
  // held the last reference it is destroyed after the unlock.
  if (entry.engine != nullptr) retired.push_back(std::move(entry.engine));
  entry.engine = std::move(engine);
  entry.bytes = bytes;
  entry.last_used = ++lru_clock_;
  entry.rows_seen = rows_seen;
  entry.metrics.publishes->Add();
  ++entry.epoch;
  entry.metrics.epoch->Set(static_cast<std::int64_t>(entry.epoch));
  resident_bytes_ += bytes;
  // The new snapshot is pinned (EvictToFitLocked skips path-less
  // entries), so making room only displaces file-backed residents.
  if (byte_budget_ != kUnlimited) EvictToFitLocked(byte_budget_, &retired);
  cv_.notify_all();
  return entry.epoch;
}

std::optional<SnapshotState> SketchPod::SnapshotOf(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return std::nullopt;
  return SnapshotState{it->second.epoch, it->second.rows_seen};
}

bool SketchPod::WaitForEpoch(const std::string& name, std::uint64_t min_epoch,
                             std::chrono::milliseconds timeout,
                             SnapshotState* out) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return false;
  // Entries are never erased and std::map nodes are address-stable, so
  // the pointer stays valid across the wait.
  Entry* entry = &it->second;
  cv_.wait_for(lock, timeout,
               [entry, min_epoch] { return entry->epoch > min_epoch; });
  if (out != nullptr) *out = SnapshotState{entry->epoch, entry->rows_seen};
  return true;
}

std::shared_ptr<const Engine> SketchPod::Acquire(const std::string& name) {
  Retired retired;
  std::unique_lock<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return nullptr;
  Entry& entry = it->second;
  entry.last_used = ++lru_clock_;
  ++entry.accesses;
  if (++acquires_since_aging_ >= kAgingAcquiresPerName * catalog_.size()) {
    acquires_since_aging_ = 0;
    for (auto& named : catalog_) named.second.accesses /= 2;
  }
  if (entry.engine != nullptr) {
    entry.metrics.hits->Add();
    return entry.engine;
  }
  // A stream sketch with no snapshot yet has nothing to load from.
  if (entry.path.empty()) return nullptr;

  // Open outside the lock: file I/O and payload validation can be slow,
  // and other names must stay servable meanwhile. The slot is re-checked
  // after reacquiring in case a concurrent Acquire won the race.
  const std::string path = entry.path;
  lock.unlock();
  std::shared_ptr<const Engine> engine;
  if (auto opened = Engine::Open(path); opened.has_value()) {
    engine = std::make_shared<const Engine>(*std::move(opened));
  }
  lock.lock();
  // Entries are never erased and std::map nodes are address-stable, so
  // `entry` still refers to this name's entry.
  if (entry.engine != nullptr) {
    // Lost the race: serve the winner's engine, and unmap our duplicate
    // only after the unlock.
    entry.metrics.duplicate_loads->Add();
    if (engine != nullptr) retired.push_back(std::move(engine));
    return entry.engine;
  }
  if (engine == nullptr) return nullptr;

  const std::size_t bytes = engine->resident_bytes();
  entry.rows_seen = engine->n();
  entry.metrics.loads->Add();
  // Make room first; the incoming sketch is not resident yet, so it can
  // never be its own victim. A sketch bigger than the whole budget gets
  // everything evicted and is then admitted alone. Either way it is
  // admitted only if it is not colder than any victim; otherwise it
  // serves this caller uninstalled and is released when the caller
  // drops it, outside the lock.
  if (byte_budget_ != kUnlimited) {
    const std::vector<Entry*> victims =
        VictimsLocked(bytes <= byte_budget_ ? byte_budget_ - bytes : 0);
    for (const Entry* victim : victims) {
      if (entry.accesses < victim->accesses) {
        entry.metrics.bypasses->Add();
        return engine;
      }
    }
    EvictLocked(victims, &retired);
  }
  entry.engine = std::move(engine);
  entry.bytes = bytes;
  entry.last_used = ++lru_clock_;
  resident_bytes_ += bytes;
  return entry.engine;
}

bool SketchPod::Knows(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.count(name) > 0;
}

std::vector<std::string> SketchPod::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) names.push_back(name);
  return names;
}

void SketchPod::CountQueries(const std::string& name, std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  if (it != catalog_.end()) it->second.metrics.queries->Add(count);
}

std::vector<SketchStats> SketchPod::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SketchStats> out;
  out.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) {
    SketchStats s;
    s.name = name;
    s.hits = entry.metrics.hits->Value();
    s.loads = entry.metrics.loads->Value();
    s.bypasses = entry.metrics.bypasses->Value();
    s.duplicate_loads = entry.metrics.duplicate_loads->Value();
    s.evictions = entry.metrics.evictions->Value();
    s.queries = entry.metrics.queries->Value();
    s.publishes = entry.metrics.publishes->Value();
    s.resident = entry.engine != nullptr;
    s.resident_bytes = s.resident ? entry.bytes : 0;
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t SketchPod::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

void SketchPod::SetByteBudget(std::size_t bytes) {
  Retired retired;
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = bytes;
  if (byte_budget_ != kUnlimited) EvictToFitLocked(byte_budget_, &retired);
}

std::size_t SketchPod::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return byte_budget_;
}

std::vector<SketchPod::Entry*> SketchPod::VictimsLocked(
    std::size_t budget) {
  std::vector<Entry*> victims;
  std::size_t remaining = resident_bytes_;
  // Every resident took its own lru_clock_ tick when it was last used,
  // so last_used values are distinct and `after` walks them in order.
  std::uint64_t after = 0;
  while (remaining > budget) {
    Entry* victim = nullptr;
    for (auto& [name, entry] : catalog_) {
      // Published snapshots are pinned: with no backing file there is no
      // way to reload one, so eviction would lose it outright.
      if (entry.engine == nullptr || entry.path.empty()) continue;
      if (entry.last_used > after &&
          (victim == nullptr || entry.last_used < victim->last_used)) {
        victim = &entry;
      }
    }
    if (victim == nullptr) break;  // nothing evictable remains
    victims.push_back(victim);
    remaining -= victim->bytes;
    after = victim->last_used;
  }
  return victims;
}

void SketchPod::EvictLocked(const std::vector<Entry*>& victims,
                            Retired* retired) {
  for (Entry* victim : victims) {
    // In-flight queries hold their own shared_ptr; this only hands the
    // pod's reference to the caller's Retired list, so the engine is
    // destroyed once they finish, and never under mu_.
    retired->push_back(std::move(victim->engine));
    resident_bytes_ -= victim->bytes;
    victim->bytes = 0;
    victim->metrics.evictions->Add();
  }
}

void SketchPod::EvictToFitLocked(std::size_t budget, Retired* retired) {
  EvictLocked(VictimsLocked(budget), retired);
}

}  // namespace ifsketch::serve

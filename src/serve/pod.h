// SketchPod: a multi-tenant host for many named sketches.
//
// One pod owns a name -> IFSK-path catalog and materializes Engine
// instances on demand (Engine::Open on first Acquire), holding them
// resident under a byte budget: LRU eviction plus frequency-gated
// admission (below). The byte budget is accounted in
// Engine::resident_bytes(): for mapped (arena v2) loads that is the
// whole mapped file image -- what eviction actually gives back to the
// page cache -- and for copied loads the owned summary
// payload bytes; either way the dominant, size-predictable term (the
// derived query views are a small multiple of it, and for mapped
// row-major sketches the views borrow the mapping outright). Loading a
// sketch that would push the pod over budget first evicts
// least-recently-acquired residents.
//
// Admission is frequency-gated (TinyLFU's rule: Einziger, Friedman &
// Manes, ACM TOS 2017). Every Acquire of a cataloged name, hit or miss,
// adds 1 to that name's access count, and once every
// kAgingAcquiresPerName x catalog-size Acquires all counts are halved,
// so the count tracks recent popularity. A freshly opened engine is
// installed only when its name's count is at least that of every
// resident the LRU would evict to make room; otherwise the load is a
// bypass: the opened engine serves the caller's request and is released
// when the caller drops it, and nothing is evicted for it. Ties admit,
// so names used equally often get exactly the plain LRU order. Under a
// skewed name stream (the paper's sketches are fixed-size row samples,
// so a server holds many same-sized ones) this keeps a one-off or cold
// name from pushing out a hot sketch that would be reloaded right back.
// A sketch larger than the whole budget would evict every file-backed
// resident; it is admitted, alone, only when it is not colder than any
// of them, and otherwise served as a bypass (refusing it would make the
// pod unable to serve that name at all).
//
// Eviction only drops the pod's reference. Acquire hands out
// shared_ptr<const Engine>, so queries already in flight on an evicted
// sketch finish safely on their own reference -- for a mapped engine the
// munmap is deferred the same way, until the last in-flight query
// releases it; the next Acquire remaps from the catalog path. All
// catalog/LRU/stat state is mutex-guarded; queries themselves run
// outside the lock on the shared Engine (whose query surface is
// const-thread-safe, see engine.h).
//
// No engine is destroyed under the pod lock. Every reference the pod
// lets go of -- an eviction victim, a snapshot replaced by Publish, the
// duplicate a losing concurrent opener mapped -- is moved into a local
// Retired list declared before the lock, so when it is the last
// reference the ~Engine (for a mapped engine, a munmap and its TLB
// shootdown) runs after the unlock and never stalls other Acquires.
//
// Stream-published sketches (the ingest path, src/ingest/) have no
// backing file: Publish() swaps in each freshly built snapshot with the
// same shared_ptr discipline, bumps the per-name epoch (0 = nothing
// published yet), and wakes WaitForEpoch subscribers. Published
// snapshots are explicitly placed hot objects: they count against the
// byte budget -- displacing file-backed LRU residents -- but are never
// eviction victims themselves, because there is no path to reload them
// from; only the next Publish replaces one.
#ifndef IFSKETCH_SERVE_POD_H_
#define IFSKETCH_SERVE_POD_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine.h"
#include "obs/metrics.h"

namespace ifsketch::serve {

/// Per-sketch counters, snapshot via SketchPod::stats(). Since PR 8 the
/// counters live in the pod's metrics registry
/// (serve_sketch_*_total{pod=...,sketch=...}); this struct is the
/// read-back view existing callers keep using.
struct SketchStats {
  std::string name;
  std::uint64_t hits = 0;       ///< Acquire calls served by a resident engine
  std::uint64_t loads = 0;      ///< Engine::Open calls (misses that loaded)
  /// The subset of loads that served their request without being
  /// installed, because the name was colder than a resident it would
  /// have evicted (see the admission rule above).
  std::uint64_t bypasses = 0;
  /// Engine::Open calls whose result was discarded because a concurrent
  /// Acquire of the same name installed its engine first (the caller is
  /// served that resident engine; counted here, not in hits).
  std::uint64_t duplicate_loads = 0;
  std::uint64_t evictions = 0;  ///< times the budget pushed it out
  std::uint64_t queries = 0;    ///< individual query answers served
  std::uint64_t publishes = 0;  ///< snapshots published via Publish()
  std::size_t resident_bytes = 0;  ///< 0 when not resident
  bool resident = false;
};

/// Which snapshot a sketch name is currently serving. epoch starts at 0
/// (nothing published; for file-backed sketches it stays 0) and
/// increments once per Publish. rows_seen is the stream prefix the
/// snapshot covers (the engine's n) -- for a file-backed sketch, the
/// file's n once loaded.
struct SnapshotState {
  std::uint64_t epoch = 0;
  std::uint64_t rows_seen = 0;
};

/// Hosts many named sketches behind one byte budget.
class SketchPod {
 public:
  /// No eviction until a budget is set.
  static constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

  /// `registry` is where the per-sketch counter series land (null uses
  /// the process-wide obs::MetricsRegistry::Default()); `label` is the
  /// pod= label value on those series and defaults to a process-unique
  /// ordinal, which matches router pod indices when pods are created in
  /// index order (as ifsketch_server does).
  explicit SketchPod(std::size_t byte_budget = kUnlimited,
                     obs::MetricsRegistry* registry = nullptr,
                     std::string label = std::string());

  /// Registers `name` as servable from the IFSK file at `path`. The file
  /// is not opened until first Acquire. False if the name is taken.
  bool AddSketch(const std::string& name, const std::string& path);

  /// Registers `name` as a stream-published sketch with no backing file:
  /// it serves nothing until the first Publish. False if the name is
  /// taken. (Publish auto-registers, so this exists to reserve the name
  /// up front -- e.g. before the ingest thread starts.)
  bool AddStream(const std::string& name);

  /// Atomically swaps in a freshly built snapshot for `name`,
  /// auto-registering the name as a stream sketch if needed, and returns
  /// the new epoch (1 for the first snapshot). The previous snapshot is
  /// retired exactly like eviction: in-flight queries finish on their
  /// own shared_ptr. Published snapshots are pinned -- they count
  /// against the byte budget (file-backed residents are evicted to make
  /// room) but are never evicted themselves, only replaced by the next
  /// Publish. Wakes all WaitForEpoch waiters.
  std::uint64_t Publish(const std::string& name,
                        std::shared_ptr<const Engine> engine,
                        std::uint64_t rows_seen);

  /// The current snapshot state of `name`; nullopt when unregistered.
  std::optional<SnapshotState> SnapshotOf(const std::string& name) const;

  /// Blocks until `name`'s epoch exceeds `min_epoch`, the timeout
  /// elapses, or the name is unregistered (returns false only in that
  /// last case). On true, *out (when non-null) holds the final state --
  /// callers distinguish satisfied from timed-out by comparing
  /// out->epoch with min_epoch.
  bool WaitForEpoch(const std::string& name, std::uint64_t min_epoch,
                    std::chrono::milliseconds timeout,
                    SnapshotState* out = nullptr);

  /// The engine for `name`, loading (and evicting) as needed. nullptr
  /// when the name is unregistered, its file fails to open, or it is a
  /// stream sketch with no snapshot published yet -- callers distinguish
  /// unregistered from the rest with Knows().
  std::shared_ptr<const Engine> Acquire(const std::string& name);

  /// Whether `name` is in the catalog (resident or not).
  bool Knows(const std::string& name) const;

  /// Registered names, sorted (catalog order, not residency).
  std::vector<std::string> Names() const;

  /// Adds `count` served answers to `name`'s query counter.
  void CountQueries(const std::string& name, std::uint64_t count);

  /// Per-sketch counters, sorted by name.
  std::vector<SketchStats> stats() const;

  /// Total bytes currently resident (sum of Engine::resident_bytes over
  /// loaded engines: mapped image sizes and owned summary bytes).
  std::size_t resident_bytes() const;

  /// Re-budgets the pod, evicting LRU residents to fit immediately.
  void SetByteBudget(std::size_t bytes);
  std::size_t byte_budget() const;

 private:
  /// Registry series backing one catalog entry's counters, resolved
  /// when the entry is created (cold path). The entry's own fields keep
  /// only what the pod's logic needs under mu_; everything countable
  /// lives in the registry so STATS and stats() read the same numbers.
  struct EntryMetrics {
    obs::Counter* hits = nullptr;
    obs::Counter* loads = nullptr;
    obs::Counter* bypasses = nullptr;
    obs::Counter* duplicate_loads = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* queries = nullptr;
    obs::Counter* publishes = nullptr;
    obs::Gauge* epoch = nullptr;  // published epoch
  };

  struct Entry {
    std::string path;  // empty for stream-published sketches
    std::shared_ptr<const Engine> engine;  // null when not resident
    std::size_t bytes = 0;                 // resident summary bytes
    std::uint64_t last_used = 0;           // LRU tick of last Acquire
    std::uint64_t accesses = 0;  // aged Acquire count (admission gate)
    std::uint64_t epoch = 0;      // 0 until the first Publish
    std::uint64_t rows_seen = 0;  // prefix covered by the current engine
    EntryMetrics metrics;
  };

  /// Resolves the registry series for `name` (caller holds mu_; the
  /// registry has its own lock and never calls back into the pod).
  EntryMetrics ResolveMetrics(const std::string& name) const;

  /// Engines the pod let go of while holding mu_. Declared before the
  /// lock, so they are destroyed after it is released.
  using Retired = std::vector<std::shared_ptr<const Engine>>;

  /// All access counts are halved once per this many Acquires per
  /// cataloged name. In a simulated Zipf(1) stream (32 names, room for
  /// 8) every period from 5 to ~300 per name gave a hit ratio within
  /// 1.5 points of the others; plain LRU got 13 points less.
  static constexpr std::uint64_t kAgingAcquiresPerName = 10;

  /// The residents EvictToFitLocked(budget) would evict, in eviction
  /// (least-recently-used first) order. Caller holds mu_.
  std::vector<Entry*> VictimsLocked(std::size_t budget);

  /// Evicts `victims`, moving each one's engine into *retired. Caller
  /// holds mu_.
  void EvictLocked(const std::vector<Entry*>& victims, Retired* retired);

  /// Evicts least-recently-used residents until resident bytes fit
  /// `budget`, moving each victim's engine into *retired. Caller holds
  /// mu_.
  void EvictToFitLocked(std::size_t budget, Retired* retired);

  mutable std::mutex mu_;
  std::condition_variable cv_;  // signaled on every Publish
  std::map<std::string, Entry> catalog_;
  obs::MetricsRegistry* registry_;
  std::string label_;
  std::size_t byte_budget_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t lru_clock_ = 0;
  std::uint64_t acquires_since_aging_ = 0;
};

}  // namespace ifsketch::serve

#endif  // IFSKETCH_SERVE_POD_H_

// Router: deterministic name -> pod sharding.
//
// The front door over N SketchPods. Each name lives on exactly one pod,
// chosen by rendezvous (highest-random-weight, HRW) hashing: every pod
// index is scored against the name with a pure mixing function and the
// highest score wins. The placement is a pure function of (name, pod
// count) -- every client, server thread and restart agrees with no
// routing table to synchronize -- and adding a pod moves only the names
// the new pod wins. Every call on a name goes straight to its pod; the
// router keeps no per-request state of its own and takes no lock.
//
// Pods in one process share one address space and one failure domain,
// so the router does not replicate: failover happens between server
// processes, through SketchClient's endpoint rotation (serve/client.h),
// where a replica really can fail on its own.
//
// Execution: each request runs its own batch on the calling thread,
// with the engine it was validated against or one Acquire. Concurrent
// requests on one sketch run side by side (Engine queries are const and
// thread-safe), so a short request is never held behind a long batch on
// the same name. There is no cross-request fusion: served sketches are
// small (a uniform row sample's size does not depend on n), so a
// 16-query request's kernel costs about half a microsecond, less than
// making concurrent requests wait for one another would.
#ifndef IFSKETCH_SERVE_ROUTER_H_
#define IFSKETCH_SERVE_ROUTER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/pod.h"

namespace ifsketch::serve {

/// How a routed query batch fared (mirrors protocol Status, minus
/// transport concerns).
enum class RouteStatus {
  kOk,
  kUnknownSketch,     ///< the owning pod's catalog lacks the name
  kLoadFailed,        ///< cataloged but the pod could not serve it
  kUnsupportedQuery,  ///< wrong answer flavor or unsupported query size
};

/// Batch counters, snapshot via Router::coalesce_stats(). They are
/// read back from the metrics registry (serve_coalesce_*_total) as
/// deltas against the router's construction-time baseline, so the
/// struct is a view of THIS router's traffic even when the registry is
/// shared. Every answered request is one engine batch, so the two
/// fields advance together.
struct CoalesceStats {
  std::uint64_t batches = 0;   ///< Engine batch calls issued
  std::uint64_t requests = 0;  ///< client requests those batches served
};

struct RouterOptions {
  /// Registry the router's metrics land in (batch counters, per-pod
  /// inflight gauges). Null uses the process-wide
  /// obs::MetricsRegistry::Default(); tests pass their own so counters
  /// start from zero.
  obs::MetricsRegistry* registry = nullptr;
};

/// Routes named-sketch requests to the pod that owns each name.
class Router {
 public:
  explicit Router(std::vector<std::shared_ptr<SketchPod>> pods,
                  RouterOptions options = RouterOptions{});

  /// The index of the pod that owns `name`: the HRW winner over
  /// score(name, pod) = Mix64(Fnv1a64(name) ^ Mix64(pod + 1)), ties to
  /// the lower index. Pure function of name and pod count: identical
  /// across processes and restarts.
  std::size_t ShardOf(const std::string& name) const;

  /// Registers a sketch file on `name`'s pod (catalog only; loaded on
  /// first use). False if the name is already registered.
  bool AddSketch(const std::string& name, const std::string& path);

  /// Registers a stream-published name on its pod (see
  /// SketchPod::AddStream).
  bool AddStream(const std::string& name);

  /// Publishes a snapshot on `name`'s pod (see SketchPod::Publish);
  /// returns the new epoch.
  std::uint64_t Publish(const std::string& name,
                        std::shared_ptr<const Engine> engine,
                        std::uint64_t rows_seen);

  /// Whether `name`'s pod catalogs it.
  bool Knows(const std::string& name) const;

  /// SketchPod::SnapshotOf on `name`'s pod.
  std::optional<SnapshotState> SnapshotOf(const std::string& name) const;

  /// SketchPod::WaitForEpoch on `name`'s pod; false when it does not
  /// know the name.
  bool WaitForEpoch(const std::string& name, std::uint64_t min_epoch,
                    std::chrono::milliseconds timeout,
                    SnapshotState* out = nullptr);

  /// Acquires `name`'s engine from its pod, for metadata/validation.
  /// nullptr when the name is unknown or cannot be served; Knows tells
  /// the two apart.
  std::shared_ptr<const Engine> Acquire(const std::string& name);

  /// Batched estimate on `name`'s engine, run on the calling thread.
  /// `ts` must already be validated against the sketch (universe d,
  /// supported sizes, estimator flavor) -- use Acquire for the checks;
  /// invalid batches fail kUnsupportedQuery.
  RouteStatus EstimateMany(const std::string& name,
                           const std::vector<core::Itemset>& ts,
                           std::vector<double>* answers);

  /// Batched threshold queries; same contract.
  RouteStatus AreFrequent(const std::string& name,
                          const std::vector<core::Itemset>& ts,
                          std::vector<bool>* answers);

  /// Overloads taking the engine the caller already holds from
  /// Acquire(name): the serving loop validates and routes with a single
  /// pod acquire per request.
  RouteStatus EstimateMany(const std::string& name,
                           std::shared_ptr<const Engine> engine,
                           const std::vector<core::Itemset>& ts,
                           std::vector<double>* answers);
  RouteStatus AreFrequent(const std::string& name,
                          std::shared_ptr<const Engine> engine,
                          const std::vector<core::Itemset>& ts,
                          std::vector<bool>* answers);

  std::size_t pod_count() const { return pods_.size(); }
  const std::vector<std::shared_ptr<SketchPod>>& pods() const {
    return pods_;
  }

  CoalesceStats coalesce_stats() const;

  /// The registry this router's metrics land in (the STATS reply source).
  obs::MetricsRegistry& registry() const { return *registry_; }

 private:
  /// Runs one request on the calling thread: validates `ts` against
  /// `engine` (or against one Acquire when it is null) and answers into
  /// exactly one of `estimates`/`bits`.
  RouteStatus Route(const std::string& name,
                    std::shared_ptr<const Engine> engine,
                    const std::vector<core::Itemset>& ts,
                    std::vector<double>* estimates,
                    std::vector<bool>* bits);

  SketchPod& PodOf(const std::string& name) const {
    return *pods_[ShardOf(name)];
  }

  std::vector<std::shared_ptr<SketchPod>> pods_;

  // Registry metrics, resolved once in the constructor (hot paths touch
  // only these pre-resolved lock-free pointers; see obs/metrics.h).
  obs::MetricsRegistry* registry_;
  obs::Counter* coalesce_batches_;
  obs::Counter* coalesce_requests_;
  // Counter values at construction: coalesce_stats() reports deltas so
  // a router sharing the process-wide registry with predecessors still
  // reports only its own traffic.
  CoalesceStats coalesce_baseline_;
  std::vector<obs::Gauge*> pod_inflight_;  // serve_pod_inflight{pod=}
};

}  // namespace ifsketch::serve

#endif  // IFSKETCH_SERVE_ROUTER_H_

#include "serve/router.h"

#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace ifsketch::serve {
namespace {

/// FNV-1a, 64-bit: stable across platforms, processes and restarts, so
/// placement is a pure function of the name.
std::uint64_t Fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// splitmix64 finalizer: the avalanche step that turns (name hash ^
/// pod seed) into an HRW score. Full 64-bit avalanche makes the winner
/// indistinguishable from a per-name uniform draw over the pods --
/// which is what gives rendezvous hashing its even spread and
/// minimal-reshuffle property.
std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Router::Router(std::vector<std::shared_ptr<SketchPod>> pods,
               RouterOptions options)
    : pods_(std::move(pods)) {
  IFSKETCH_CHECK(!pods_.empty());
  for (const auto& pod : pods_) IFSKETCH_CHECK(pod != nullptr);
  registry_ = options.registry != nullptr ? options.registry
                                          : &obs::MetricsRegistry::Default();
  coalesce_batches_ = registry_->GetCounter("serve_coalesce_batches_total");
  coalesce_requests_ = registry_->GetCounter("serve_coalesce_requests_total");
  coalesce_baseline_.batches = coalesce_batches_->Value();
  coalesce_baseline_.requests = coalesce_requests_->Value();
  pod_inflight_.reserve(pods_.size());
  for (std::size_t i = 0; i < pods_.size(); ++i) {
    pod_inflight_.push_back(registry_->GetGauge(
        obs::LabeledName("serve_pod_inflight", "pod", std::to_string(i))));
  }
}

std::size_t Router::ShardOf(const std::string& name) const {
  if (pods_.size() == 1) return 0;
  const std::uint64_t h = Fnv1a64(name);
  std::size_t best = 0;
  std::uint64_t best_score = Mix64(h ^ Mix64(1));
  for (std::size_t i = 1; i < pods_.size(); ++i) {
    const std::uint64_t score =
        Mix64(h ^ Mix64(static_cast<std::uint64_t>(i) + 1));
    // Strictly greater: a tie (vanishingly rare) keeps the lower index.
    if (score > best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

bool Router::AddSketch(const std::string& name, const std::string& path) {
  return PodOf(name).AddSketch(name, path);
}

bool Router::AddStream(const std::string& name) {
  return PodOf(name).AddStream(name);
}

std::uint64_t Router::Publish(const std::string& name,
                              std::shared_ptr<const Engine> engine,
                              std::uint64_t rows_seen) {
  return PodOf(name).Publish(name, std::move(engine), rows_seen);
}

bool Router::Knows(const std::string& name) const {
  return PodOf(name).Knows(name);
}

std::optional<SnapshotState> Router::SnapshotOf(
    const std::string& name) const {
  return PodOf(name).SnapshotOf(name);
}

bool Router::WaitForEpoch(const std::string& name, std::uint64_t min_epoch,
                          std::chrono::milliseconds timeout,
                          SnapshotState* out) {
  return PodOf(name).WaitForEpoch(name, min_epoch, timeout, out);
}

std::shared_ptr<const Engine> Router::Acquire(const std::string& name) {
  obs::StageTimer acquire_timer(obs::Stage::kAcquire);
  return PodOf(name).Acquire(name);
}

RouteStatus Router::EstimateMany(const std::string& name,
                                 const std::vector<core::Itemset>& ts,
                                 std::vector<double>* answers) {
  return Route(name, nullptr, ts, answers, nullptr);
}

RouteStatus Router::AreFrequent(const std::string& name,
                                const std::vector<core::Itemset>& ts,
                                std::vector<bool>* answers) {
  return Route(name, nullptr, ts, nullptr, answers);
}

RouteStatus Router::EstimateMany(const std::string& name,
                                 std::shared_ptr<const Engine> engine,
                                 const std::vector<core::Itemset>& ts,
                                 std::vector<double>* answers) {
  return Route(name, std::move(engine), ts, answers, nullptr);
}

RouteStatus Router::AreFrequent(const std::string& name,
                                std::shared_ptr<const Engine> engine,
                                const std::vector<core::Itemset>& ts,
                                std::vector<bool>* answers) {
  return Route(name, std::move(engine), ts, nullptr, answers);
}

CoalesceStats Router::coalesce_stats() const {
  CoalesceStats stats;
  stats.batches = coalesce_batches_->Value() - coalesce_baseline_.batches;
  stats.requests = coalesce_requests_->Value() - coalesce_baseline_.requests;
  return stats;
}

RouteStatus Router::Route(const std::string& name,
                          std::shared_ptr<const Engine> engine,
                          const std::vector<core::Itemset>& ts,
                          std::vector<double>* estimates,
                          std::vector<bool>* bits) {
  // A request runs on the engine it arrived with, or on one Acquire.
  // Catalog entries are never removed, so a name the pod does not know
  // after a failed Acquire was unknown before it too.
  if (engine == nullptr) {
    engine = Acquire(name);
    if (engine == nullptr) {
      return Knows(name) ? RouteStatus::kLoadFailed
                         : RouteStatus::kUnknownSketch;
    }
  }
  // A request with any unanswerable query fails whole, never partially,
  // and never reaches the engine.
  if (estimates != nullptr &&
      engine->params().answer != core::Answer::kEstimator) {
    return RouteStatus::kUnsupportedQuery;
  }
  for (const core::Itemset& t : ts) {
    if (t.universe() != engine->d() ||
        !engine->supports_query_size(t.size())) {
      return RouteStatus::kUnsupportedQuery;
    }
  }
  // The kernel runs on the calling thread, concurrently with any other
  // request on the same engine (Engine queries are const and
  // thread-safe). The in-flight gauge brackets exactly the engine call.
  const std::size_t pod = ShardOf(name);
  {
    obs::StageTimer kernel_timer(obs::Stage::kKernel);
    pod_inflight_[pod]->Add(+1);
    if (estimates != nullptr) {
      engine->estimate_many(ts, estimates);
    } else {
      engine->are_frequent(ts, bits);
    }
    pod_inflight_[pod]->Add(-1);
  }
  pods_[pod]->CountQueries(name, ts.size());
  // Every answered request is one engine batch of its own.
  coalesce_batches_->Add();
  coalesce_requests_->Add();
  return RouteStatus::kOk;
}

}  // namespace ifsketch::serve

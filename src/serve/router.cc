#include "serve/router.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace ifsketch::serve {
namespace {

/// FNV-1a, 64-bit: stable across platforms, processes and restarts, so
/// replica placement is a pure function of the name.
std::uint64_t Fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// splitmix64 finalizer: the avalanche step that turns (name hash ^
/// pod seed) into an HRW score. Full 64-bit avalanche means ranking by
/// score is indistinguishable from a per-name random permutation of the
/// pods -- which is what gives rendezvous hashing its even spread and
/// minimal-reshuffle property.
std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Router::Router(std::vector<std::shared_ptr<SketchPod>> pods,
               RouterOptions options)
    : pods_(std::move(pods)), options_(options) {
  IFSKETCH_CHECK(!pods_.empty());
  for (const auto& pod : pods_) IFSKETCH_CHECK(pod != nullptr);
  replication_ = std::clamp<std::size_t>(options_.replication, 1,
                                         pods_.size());
  if (options_.fail_threshold < 1) options_.fail_threshold = 1;
  if (options_.probe_backoff.count() < 1) {
    options_.probe_backoff = std::chrono::milliseconds(1);
  }
  if (options_.probe_backoff_max < options_.probe_backoff) {
    options_.probe_backoff_max = options_.probe_backoff;
  }
  pod_states_.resize(pods_.size());
  for (PodState& state : pod_states_) state.backoff = options_.probe_backoff;

  registry_ = options_.registry != nullptr ? options_.registry
                                           : &obs::MetricsRegistry::Default();
  coalesce_batches_ = registry_->GetCounter("serve_coalesce_batches_total");
  coalesce_requests_ = registry_->GetCounter("serve_coalesce_requests_total");
  coalesce_baseline_.batches = coalesce_batches_->Value();
  coalesce_baseline_.requests = coalesce_requests_->Value();
  pod_metrics_.reserve(pods_.size());
  for (std::size_t i = 0; i < pods_.size(); ++i) {
    const std::string pod = std::to_string(i);
    pod_metrics_.push_back(PodMetrics{
        registry_->GetGauge(
            obs::LabeledName("serve_pod_inflight", "pod", pod)),
        registry_->GetCounter(obs::LabeledName(
            "serve_pod_health_transitions_total", "pod", pod)),
        registry_->GetCounter(
            obs::LabeledName("serve_pod_probes_total", "pod", pod)),
        registry_->GetCounter(
            obs::LabeledName("serve_pod_failovers_total", "pod", pod)),
    });
  }
}

std::vector<std::size_t> Router::ReplicasOf(const std::string& name) const {
  const std::uint64_t h = Fnv1a64(name);
  std::vector<std::uint64_t> score(pods_.size());
  for (std::size_t i = 0; i < pods_.size(); ++i) {
    score[i] = Mix64(h ^ Mix64(static_cast<std::uint64_t>(i) + 1));
  }
  std::vector<std::size_t> order(pods_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&score](std::size_t a, std::size_t b) {
              if (score[a] != score[b]) return score[a] > score[b];
              return a < b;  // ties (vanishingly rare) break by index
            });
  order.resize(replication_);
  return order;
}

std::size_t Router::ShardOf(const std::string& name) const {
  return ReplicasOf(name).front();
}

SketchPod& Router::PodFor(const std::string& name) {
  return *pods_[ShardOf(name)];
}

bool Router::AddSketch(const std::string& name, const std::string& path) {
  bool ok = true;
  for (std::size_t idx : ReplicasOf(name)) {
    ok = pods_[idx]->AddSketch(name, path) && ok;
  }
  return ok;
}

bool Router::AddStream(const std::string& name) {
  bool ok = true;
  for (std::size_t idx : ReplicasOf(name)) {
    ok = pods_[idx]->AddStream(name) && ok;
  }
  return ok;
}

std::uint64_t Router::Publish(const std::string& name,
                              std::shared_ptr<const Engine> engine,
                              std::uint64_t rows_seen) {
  // Every replica gets the same snapshot shared_ptr, so replicas stay in
  // epoch lockstep and failover can never serve a different snapshot.
  std::uint64_t epoch = 0;
  for (std::size_t idx : ReplicasOf(name)) {
    epoch = std::max(epoch, pods_[idx]->Publish(name, engine, rows_seen));
  }
  return epoch;
}

bool Router::Knows(const std::string& name) const {
  for (std::size_t idx : ReplicasOf(name)) {
    if (pods_[idx]->Knows(name)) return true;
  }
  return false;
}

std::optional<SnapshotState> Router::SnapshotOf(
    const std::string& name) const {
  for (std::size_t idx : ReplicasOf(name)) {
    auto state = pods_[idx]->SnapshotOf(name);
    if (state.has_value()) return state;
  }
  return std::nullopt;
}

bool Router::WaitForEpoch(const std::string& name, std::uint64_t min_epoch,
                          std::chrono::milliseconds timeout,
                          SnapshotState* out) {
  // Publish hits every replica with the same epoch, so waiting on any
  // replica that catalogs the name observes every publication.
  for (std::size_t idx : ReplicasOf(name)) {
    if (pods_[idx]->Knows(name)) {
      return pods_[idx]->WaitForEpoch(name, min_epoch, timeout, out);
    }
  }
  return false;
}

std::vector<std::size_t> Router::SelectionOrder(const std::string& name) {
  std::vector<std::size_t> replicas = ReplicasOf(name);
  // A single replica is always attempted no matter its health: skipping
  // it could only turn a maybe-failure into a certain one. This also
  // keeps replication=1 behaviorally identical to the old router.
  if (replicas.size() == 1) return replicas;

  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(health_mu_);
  std::vector<std::size_t> probe, healthy, suspect, parked;
  for (std::size_t idx : replicas) {
    PodState& state = pod_states_[idx];
    switch (state.health) {
      case PodHealth::kHealthy:
        healthy.push_back(idx);
        break;
      case PodHealth::kSuspect:
        suspect.push_back(idx);
        break;
      case PodHealth::kDown:
        if (now >= state.next_probe) {
          // Claim the probe window right here so concurrent requests
          // do not gang up on a pod that is likely still down; the
          // requester that got this order performs the one probe.
          state.next_probe = now + state.backoff;
          ++state.probes;
          pod_metrics_[idx].probes->Add();
          probe.push_back(idx);
        } else {
          parked.push_back(idx);
        }
        break;
    }
  }
  // Least-loaded healthy replicas first; full ties rotate so serial
  // traffic on one hot name alternates across its replicas instead of
  // pinning the first. (A failed probe costs one refused Acquire, so
  // due probes go ahead of healthy pods -- that is what lets a revived
  // pod rejoin without a separate prober thread.)
  std::stable_sort(healthy.begin(), healthy.end(),
                   [this](std::size_t a, std::size_t b) {
                     return pod_states_[a].inflight <
                            pod_states_[b].inflight;
                   });
  if (healthy.size() > 1 && pod_states_[healthy.front()].inflight ==
                                pod_states_[healthy.back()].inflight) {
    std::rotate(healthy.begin(),
                healthy.begin() + static_cast<std::ptrdiff_t>(
                                      tie_rotor_++ % healthy.size()),
                healthy.end());
  }

  std::vector<std::size_t> order;
  order.reserve(replicas.size());
  order.insert(order.end(), probe.begin(), probe.end());
  order.insert(order.end(), healthy.begin(), healthy.end());
  order.insert(order.end(), suspect.begin(), suspect.end());
  // Down pods whose backoff has not elapsed come dead last: attempted
  // only when every better replica already failed this request, so a
  // full outage still tries everything rather than failing outright.
  order.insert(order.end(), parked.begin(), parked.end());
  return order;
}

void Router::ReportSuccess(std::size_t pod) {
  std::lock_guard<std::mutex> lock(health_mu_);
  PodState& state = pod_states_[pod];
  state.consecutive_failures = 0;
  if (state.health != PodHealth::kHealthy) {
    pod_metrics_[pod].health_transitions->Add();
  }
  state.health = PodHealth::kHealthy;
  state.backoff = options_.probe_backoff;
}

void Router::ReportFailure(std::size_t pod) {
  std::lock_guard<std::mutex> lock(health_mu_);
  PodState& state = pod_states_[pod];
  ++state.failovers;
  pod_metrics_[pod].failovers->Add();
  ++state.consecutive_failures;
  const PodHealth before = state.health;
  if (state.consecutive_failures >= options_.fail_threshold) {
    if (state.health == PodHealth::kDown) {
      // Another failed probe: keep backing off, up to the cap.
      state.backoff = std::min(state.backoff * 2, options_.probe_backoff_max);
    } else {
      state.health = PodHealth::kDown;
      state.backoff = options_.probe_backoff;
    }
    state.next_probe = std::chrono::steady_clock::now() + state.backoff;
  } else {
    state.health = PodHealth::kSuspect;
  }
  if (state.health != before) pod_metrics_[pod].health_transitions->Add();
}

void Router::AddInflight(std::size_t pod, std::int64_t delta) {
  if (pod >= pod_states_.size()) return;
  pod_metrics_[pod].inflight->Add(delta);
  std::lock_guard<std::mutex> lock(health_mu_);
  pod_states_[pod].inflight += static_cast<std::uint64_t>(delta);
}

std::vector<PodHealthSnapshot> Router::pod_health() const {
  // Pod byte counters live behind each pod's own mutex; read them before
  // taking health_mu_ so the two locks never nest.
  std::vector<std::uint64_t> resident(pods_.size());
  for (std::size_t i = 0; i < pods_.size(); ++i) {
    resident[i] = pods_[i]->resident_bytes();
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  std::vector<PodHealthSnapshot> out(pods_.size());
  for (std::size_t i = 0; i < pods_.size(); ++i) {
    const PodState& state = pod_states_[i];
    out[i].health = state.health;
    out[i].consecutive_failures =
        static_cast<std::uint32_t>(state.consecutive_failures);
    out[i].inflight = state.inflight;
    out[i].resident_bytes = resident[i];
    out[i].failovers = state.failovers;
    out[i].probes = state.probes;
  }
  return out;
}

std::shared_ptr<const Engine> Router::Acquire(const std::string& name,
                                              std::size_t* served_pod) {
  // The acquire stage covers the whole failover walk: a request that
  // limps across refusing replicas shows up here, not in kRoute.
  obs::StageTimer acquire_timer(obs::Stage::kAcquire);
  if (served_pod != nullptr) *served_pod = kNoPod;
  for (std::size_t idx : SelectionOrder(name)) {
    SketchPod& pod = *pods_[idx];
    auto engine = pod.Acquire(name);
    if (engine != nullptr) {
      ReportSuccess(idx);
      if (served_pod != nullptr) *served_pod = idx;
      return engine;
    }
    // Only a genuine refusal counts against the pod: a name it does not
    // catalog, or a stream with nothing published yet, says nothing
    // about the pod's own health.
    if (pod.Knows(name) && !pod.IsUnpublishedStream(name)) {
      ReportFailure(idx);
    }
  }
  return nullptr;
}

RouteStatus Router::EstimateMany(const std::string& name,
                                 const std::vector<core::Itemset>& ts,
                                 std::vector<double>* answers) {
  return Route(name, nullptr, kNoPod, ts, answers, nullptr);
}

RouteStatus Router::AreFrequent(const std::string& name,
                                const std::vector<core::Itemset>& ts,
                                std::vector<bool>* answers) {
  return Route(name, nullptr, kNoPod, ts, nullptr, answers);
}

RouteStatus Router::EstimateMany(const std::string& name,
                                 std::shared_ptr<const Engine> engine,
                                 const std::vector<core::Itemset>& ts,
                                 std::vector<double>* answers,
                                 std::size_t engine_pod) {
  return Route(name, std::move(engine), engine_pod, ts, answers, nullptr);
}

RouteStatus Router::AreFrequent(const std::string& name,
                                std::shared_ptr<const Engine> engine,
                                const std::vector<core::Itemset>& ts,
                                std::vector<bool>* answers,
                                std::size_t engine_pod) {
  return Route(name, std::move(engine), engine_pod, ts, nullptr, answers);
}

CoalesceStats Router::coalesce_stats() const {
  CoalesceStats stats;
  stats.batches = coalesce_batches_->Value() - coalesce_baseline_.batches;
  stats.requests = coalesce_requests_->Value() - coalesce_baseline_.requests;
  return stats;
}

RouteStatus Router::Route(const std::string& name,
                          std::shared_ptr<const Engine> engine,
                          std::size_t engine_pod,
                          const std::vector<core::Itemset>& ts,
                          std::vector<double>* estimates,
                          std::vector<bool>* bits) {
  // A request runs on the engine it arrived with, or on one
  // replica-failover Acquire. Any live engine for the name answers
  // identically: every replica of a file-backed sketch opens the same
  // file, and every replica of a stream name holds the same published
  // snapshot. Catalog entries are never removed, so a name known before
  // the Acquire is still known when it fails.
  if (engine == nullptr) {
    if (!Knows(name)) return RouteStatus::kUnknownSketch;
    engine = Acquire(name, &engine_pod);
    if (engine == nullptr) return RouteStatus::kLoadFailed;
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
  // thread-safe). The in-flight gauge brackets exactly the engine call:
  // that is the load the replica selector wants to spread.
  const std::size_t pod = engine_pod != kNoPod ? engine_pod : ShardOf(name);
  {
    obs::StageTimer kernel_timer(obs::Stage::kKernel);
    AddInflight(pod, +1);
    if (estimates != nullptr) {
      engine->estimate_many(ts, estimates);
    } else {
      engine->are_frequent(ts, bits);
    }
    AddInflight(pod, -1);
  }
  pods_[pod]->CountQueries(name, ts.size());
  // Every answered request is one engine batch of its own.
  coalesce_batches_->Add();
  coalesce_requests_->Add();
  return RouteStatus::kOk;
}

}  // namespace ifsketch::serve

#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "data/generators.h"
#include "serve/server.h"
#include "sketch/sketch_file.h"
#include "util/random.h"

namespace perfbench {
namespace {

using namespace ifsketch;

constexpr char kStreamName[] = "live";
// Requests in each connection's stream; the stream is cycled.
constexpr std::size_t kStreamLength = 4096;
// Warm-up requests per connection at the end of every set-up.
constexpr std::size_t kWarmUpRequests = 32;
// Throughput is the median over windows of this length, so a burst of
// interference from outside the process moves one window, not the run.
constexpr double kWindowSeconds = 0.25;
// A window counts as quiet when the hypervisor stole at most this share
// of the machine's CPU time during it.
constexpr double kQuietStealShare = 0.01;
// SUBSCRIBE long-poll timeout; bounds how long StopBackground waits.
constexpr std::uint32_t kSubscribeTimeoutMs = 250;

const char* AlgorithmFor(std::size_t file) {
  return file % 2 == 0 ? "SUBSAMPLE" : "SUBSAMPLE-WOR";
}

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

double StolenTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user, nice, system, idle, iowait, irq, softirq, steal;
  if (in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
          softirq >> steal &&
      cpu == "cpu") {
    return steal;
  }
  return 0.0;
}

core::SketchParams ParamsFor(const Config& config) {
  core::SketchParams p;
  p.k = 3;
  p.eps = config.eps;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool LookupConfig(const std::string& workload, std::size_t nproc,
                  Config* config) {
  Config c;
  const std::size_t conns = std::clamp<std::size_t>(nproc, 1, 4);
  if (workload == "serve_small") {
    c.rows = 50000;
    c.eps = 0.05;
    c.files = 1;
    c.connections = conns;
    c.batch_queries = 16;
    c.batch_pool = 256;
    c.mix_are_frequent = true;
    c.ladder_requests = 256;
  } else if (workload == "serve_bulk") {
    c.rows = 400000;
    c.eps = 0.01;
    c.files = 1;
    c.connections = 1;
    c.batch_queries = 4096;
    c.batch_pool = 16;
    c.ladder_requests = 8;
  } else if (workload == "serve_churn") {
    c.rows = 100000;
    c.eps = 0.02;
    c.files = 32;
    c.checksum = true;
    c.budget_files = 8;
    c.connections = conns;
    c.batch_queries = 64;
    c.batch_pool = 64;
    c.zipf_names = true;
    c.ladder_requests = 64;
  } else if (workload == "ingest_live") {
    c.rows = 100000;
    c.d = 32;
    c.eps = 0.05;
    c.files = 0;
    c.connections = 1;
    c.batch_queries = 256;
    c.batch_pool = 64;
    c.rows_per_snapshot = 2000;
    c.ladder_requests = 32;
  } else {
    return false;
  }
  *config = c;
  return true;
}

Bench::Bench(Config config, std::uint64_t seed, std::string tmp_dir)
    : config_(std::move(config)), seed_(seed), tmp_dir_(std::move(tmp_dir)) {}

Bench::~Bench() { Teardown(); }

bool Bench::Setup(int round, std::string* error) {
  util::Rng rng(seed_);
  db_ = data::PowerLawBaskets(config_.rows, config_.d, 1.0, 0.5, 4, 3, 0.2,
                              rng);
  registry_ = std::make_unique<obs::MetricsRegistry>();
  const bool ok = config_.files > 0 ? SetupFiles(round, error)
                                    : SetupStream(round, error);
  if (!ok) return false;
  MakeStreams();
  server_ = std::make_unique<serve::ReactorServer>(*router_);
  if (!server_->Listen(0)) {
    *error = "reactor cannot listen on 127.0.0.1";
    return false;
  }
  return Connect(error) && WarmUp(error);
}

bool Bench::SetupFiles(int round, std::string* error) {
  names_.clear();
  paths_.clear();
  reference_.clear();
  std::size_t max_bytes = 0;
  for (std::size_t i = 0; i < config_.files; ++i) {
    util::Rng build_rng(seed_ * 0x9e3779b97f4a7c15ull + i + 1);
    auto built = Engine::Build(db_, AlgorithmFor(i), ParamsFor(config_),
                               build_rng);
    if (!built.has_value()) {
      *error = std::string("Engine::Build failed for ") + AlgorithmFor(i);
      return false;
    }
    const std::string path = tmp_dir_ + "/r" + std::to_string(round) + "-" +
                             std::to_string(i) + ".ifsk";
    std::string save_error;
    if (!built->Save(path, &save_error,
                     config_.checksum ? sketch::SketchChecksum::kCrc32c
                                      : sketch::SketchChecksum::kNone)) {
      *error = "cannot save " + path + ": " + save_error;
      return false;
    }
    max_bytes = std::max<std::size_t>(max_bytes,
                                      std::filesystem::file_size(path));
    names_.push_back("s" + std::to_string(i));
    paths_.push_back(path);
    reference_.push_back(std::make_shared<const Engine>(std::move(*built)));
  }
  // A mapped engine pins its whole file image, so a budget of N files
  // (plus half a file of slack) holds exactly N residents.
  const std::size_t budget =
      config_.budget_files == 0
          ? serve::SketchPod::kUnlimited
          : config_.budget_files * max_bytes + max_bytes / 2;
  pod_ = std::make_shared<serve::SketchPod>(budget, registry_.get(), "0");
  serve::RouterOptions options;
  options.registry = registry_.get();
  router_ = std::make_unique<serve::Router>(
      std::vector<std::shared_ptr<serve::SketchPod>>{pod_}, options);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (!router_->AddSketch(names_[i], paths_[i])) {
      *error = "duplicate sketch name " + names_[i];
      return false;
    }
  }
  return true;
}

bool Bench::SetupStream(int round, std::string* error) {
  names_ = {kStreamName};
  paths_.clear();
  pod_ = std::make_shared<serve::SketchPod>(serve::SketchPod::kUnlimited,
                                            registry_.get(), "0");
  serve::RouterOptions options;
  options.registry = registry_.get();
  router_ = std::make_unique<serve::Router>(
      std::vector<std::shared_ptr<serve::SketchPod>>{pod_}, options);
  router_->AddStream(kStreamName);

  ingest::IngestOptions io;
  io.algorithm = "STREAM-SUBSAMPLE";
  io.params = ParamsFor(config_);
  io.d = config_.d;
  io.seed = seed_;
  io.rows_per_snapshot = config_.rows_per_snapshot;
  io.registry = registry_.get();
  io.wal_dir = tmp_dir_ + "/wal-" + std::to_string(round);
  io.wal_sync = ingest::WalSyncPolicy::kOnSnapshot;
  paths_.push_back(io.wal_dir);
  service_ = ingest::IngestService::Create(
      io,
      [this](std::shared_ptr<const Engine> engine, std::uint64_t rows) {
        {
          std::lock_guard<std::mutex> lock(book_mu_);
          if (first_snapshot_ == nullptr) first_snapshot_ = engine;
          if (rows >= book_keep_from_) book_[rows] = engine;
        }
        router_->Publish(kStreamName, std::move(engine), rows);
      },
      error);
  if (service_ == nullptr) return false;
  // The first snapshot is part of set-up: nothing is servable before it.
  next_row_ = 0;
  rows_pushed_.store(0);
  push_marks_.clear();
  reply_marks_.clear();
  push_wait_ns_ = 0;
  producer_wall_ns_ = 0;
  for (std::size_t i = 0; i < config_.rows_per_snapshot; ++i) {
    service_->Push(db_.Row(next_row_++ % db_.num_rows()));
  }
  rows_pushed_.store(config_.rows_per_snapshot);
  serve::SnapshotState state;
  if (!router_->WaitForEpoch(kStreamName, 0, std::chrono::seconds(30),
                             &state) ||
      state.epoch == 0) {
    *error = "ingest published no first snapshot";
    return false;
  }
  return true;
}

void Bench::MakeStreams() {
  util::Rng rng(seed_ ^ 0x5eedba7c4e5ull);
  batches_.clear();
  for (std::size_t b = 0; b < config_.batch_pool; ++b) {
    Batch batch;
    for (std::size_t q = 0; q < config_.batch_queries; ++q) {
      core::Itemset t(config_.d);
      while (t.size() < 3) {
        t.Add(static_cast<std::size_t>(rng.UniformInt(config_.d)));
      }
      std::vector<std::uint32_t> attrs;
      for (const std::size_t a : t.Attributes()) {
        attrs.push_back(static_cast<std::uint32_t>(a));
      }
      batch.wire.push_back(std::move(attrs));
      batch.itemsets.push_back(std::move(t));
    }
    batches_.push_back(std::move(batch));
  }
  // Zipf(1) over the names, with the popularity order shuffled per seed.
  std::vector<std::uint32_t> order(names_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf.push_back(total);
  }
  streams_.assign(config_.connections, {});
  for (auto& stream : streams_) {
    for (std::size_t i = 0; i < kStreamLength; ++i) {
      Request r;
      if (config_.zipf_names) {
        const double u = rng.UniformDouble() * total;
        const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        r.name = order[std::min<std::size_t>(
            static_cast<std::size_t>(it - cdf.begin()), order.size() - 1)];
      }
      r.batch = static_cast<std::uint32_t>(rng.UniformInt(batches_.size()));
      r.op = config_.mix_are_frequent && i % 4 == 3 ? Op::kAreFrequent
                                                    : Op::kEstimate;
      stream.push_back(r);
    }
  }
  positions_.assign(config_.connections, 0);
  for (std::size_t c = 0; c < positions_.size(); ++c) {
    positions_[c] = c * (kStreamLength / positions_.size());
  }
}

bool Bench::Connect(std::string* error) {
  clients_.clear();
  for (std::size_t c = 0; c < config_.connections; ++c) {
    auto transport = serve::TcpConnect(server_->port());
    if (transport == nullptr) {
      *error = "cannot connect to the reactor";
      return false;
    }
    clients_.push_back(
        std::make_unique<serve::SketchClient>(std::move(transport)));
  }
  if (config_.files == 0) {
    auto transport = serve::TcpConnect(server_->port());
    if (transport == nullptr) {
      *error = "cannot connect the subscriber";
      return false;
    }
    subscriber_ = std::make_unique<serve::SketchClient>(std::move(transport));
  }
  return true;
}

bool Bench::WarmUp(std::string* error) {
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    for (std::size_t i = 0; i < kWarmUpRequests; ++i) {
      const Request& r = streams_[c][i % streams_[c].size()];
      const auto& wire = batches_[r.batch].wire;
      const bool answered =
          r.op == Op::kEstimate
              ? clients_[c]->EstimateMany(names_[r.name], wire).has_value()
              : clients_[c]->AreFrequent(names_[r.name], wire).has_value();
      if (!answered) {
        *error = "warm-up request failed: " + clients_[c]->last_error();
        return false;
      }
    }
  }
  return true;
}

bool Bench::PrepareReference(std::string* error) {
  if (config_.files == 0) {
    // The cheap prefix check: the first published snapshot must equal a
    // one-shot Engine::Build over the same row prefix with the same seed.
    core::Database prefix(0, config_.d);
    for (std::size_t i = 0; i < config_.rows_per_snapshot; ++i) {
      prefix.AppendRow(db_.Row(i));
    }
    util::Rng rng(seed_);
    const auto direct =
        Engine::Build(prefix, "STREAM-SUBSAMPLE", ParamsFor(config_), rng);
    std::shared_ptr<const Engine> first;
    {
      std::lock_guard<std::mutex> lock(book_mu_);
      first = first_snapshot_;
    }
    if (!direct.has_value() || first == nullptr ||
        first->n() != config_.rows_per_snapshot ||
        !(first->file().summary == direct->file().summary)) {
      *error = "first snapshot differs from Engine::Build over its prefix";
      return false;
    }
    for (const Batch& b : batches_) {
      std::vector<double> a, e;
      first->estimate_many(b.itemsets, &a);
      direct->estimate_many(b.itemsets, &e);
      if (!BitIdentical(a, e)) {
        *error = "first snapshot answers differ from Engine::Build";
        return false;
      }
    }
    return true;
  }
  expected_.assign(names_.size(), {});
  expected_bits_.assign(names_.size(), {});
  for (std::size_t n = 0; n < names_.size(); ++n) {
    for (const Batch& b : batches_) {
      std::vector<double> answers;
      reference_[n]->estimate_many(b.itemsets, &answers);
      expected_[n].push_back(std::move(answers));
      std::vector<bool> bits;
      if (config_.mix_are_frequent) {
        reference_[n]->are_frequent(b.itemsets, &bits);
      }
      expected_bits_[n].push_back(std::move(bits));
    }
  }
  (void)error;
  return true;
}

bool Bench::Verify(const Request& r, const std::vector<double>* estimates,
                   const std::vector<bool>* bits, std::uint64_t lo,
                   std::uint64_t hi) {
  if (config_.files > 0) {
    if (estimates != nullptr) {
      return BitIdentical(*estimates, expected_[r.name][r.batch]);
    }
    return *bits == expected_bits_[r.name][r.batch];
  }
  // Live stream: the reply came from a snapshot published between the
  // request's send and its receipt; it must equal that snapshot's direct
  // answer. Older snapshots are released, since later requests start at
  // or after `hi`.
  std::vector<std::shared_ptr<const Engine>> candidates;
  {
    std::lock_guard<std::mutex> lock(book_mu_);
    for (auto it = book_.lower_bound(lo); it != book_.end() && it->first <= hi;
         ++it) {
      candidates.push_back(it->second);
    }
    book_keep_from_ = hi;
    book_.erase(book_.begin(), book_.lower_bound(hi));
  }
  if (estimates == nullptr) return false;
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    std::vector<double> direct;
    (*it)->estimate_many(batches_[r.batch].itemsets, &direct);
    if (BitIdentical(direct, *estimates)) return true;
  }
  return false;
}

void Bench::StartBackground(bool time_push) {
  if (config_.files > 0) return;
  background_stop_.store(false);
  producer_ = std::thread([this, time_push] { Producer(time_push); });
  subscriber_thread_ = std::thread([this] { Subscriber(); });
}

void Bench::StopBackground() {
  background_stop_.store(true);
  if (producer_.joinable()) producer_.join();
  if (subscriber_thread_.joinable()) subscriber_thread_.join();
}

void Bench::Producer(bool time_push) {
  const std::int64_t start = NowNs();
  std::uint64_t pushed = rows_pushed_.load();
  while (!background_stop_.load(std::memory_order_relaxed)) {
    util::BitVector row = db_.Row(next_row_++ % db_.num_rows());
    if (time_push) {
      const std::int64_t t0 = NowNs();
      service_->Push(std::move(row));
      push_wait_ns_ += NowNs() - t0;
    } else {
      service_->Push(std::move(row));
    }
    rows_pushed_.store(++pushed, std::memory_order_relaxed);
    if (pushed % config_.rows_per_snapshot == 0) {
      push_marks_.push_back({pushed, NowNs()});
    }
  }
  producer_wall_ns_ += NowNs() - start;
}

void Bench::Subscriber() {
  const auto state = router_->SnapshotOf(kStreamName);
  std::uint64_t last = state.has_value() ? state->epoch : 0;
  while (!background_stop_.load(std::memory_order_relaxed)) {
    const auto info =
        subscriber_->Subscribe(kStreamName, last, kSubscribeTimeoutMs);
    const std::int64_t t = NowNs();
    subscribes_.fetch_add(1, std::memory_order_relaxed);
    if (!info.has_value()) {
      subscribe_failed_.fetch_add(1, std::memory_order_relaxed);
      return;  // a failed single-connection client stays failed
    }
    if (info->epoch > last) {
      reply_marks_.push_back({info->rows_seen, t});
      snapshots_seen_.fetch_add(1, std::memory_order_relaxed);
      last = info->epoch;
    }
  }
}

std::vector<double> Bench::SnapshotLagsMs() const {
  return JoinSnapshotLag(push_marks_, reply_marks_);
}

double Bench::PushWaitFrac() const {
  return producer_wall_ns_ > 0 ? static_cast<double>(push_wait_ns_) /
                                     static_cast<double>(producer_wall_ns_)
                               : 0.0;
}

Bench::Counters Bench::ReadCounters() const {
  Counters c;
  for (const auto& s : pod_->stats()) {
    c.hits += s.hits;
    c.loads += s.loads;
    c.evictions += s.evictions;
  }
  const serve::CoalesceStats co = router_->coalesce_stats();
  c.batches = co.batches;
  c.coalesced_requests = co.requests;
  return c;
}

LoadResult Bench::RunLoad(double seconds, double cap_seconds,
                          std::uint64_t min_requests,
                          std::uint64_t min_snapshots,
                          std::vector<SpanRecorder>* recorders) {
  struct alignas(64) ConnState {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> failed{0};
    std::vector<LatencyHistogram> latency;  // by window
  };
  const std::size_t conns = clients_.size();
  std::unique_ptr<ConnState[]> states(new ConnState[conns]);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> window{0};
  const bool live = config_.files == 0;
  // Every window's histograms exist up front, whether the run ends early
  // or at the cap, so the memory they take never depends on run length.
  const std::size_t max_windows =
      static_cast<std::size_t>(cap_seconds / kWindowSeconds) + 2;
  for (std::size_t c = 0; c < conns; ++c) {
    states[c].latency.resize(max_windows);
  }
  LoadResult out;
  out.window_latency.resize(max_windows);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ConnState& st = states[c];
      serve::SketchClient& client = *clients_[c];
      const std::vector<Request>& stream = streams_[c];
      SpanRecorder* rec = recorders != nullptr ? &(*recorders)[c] : nullptr;
      const std::uint32_t span_name =
          rec != nullptr ? rec->Intern("client.request") : 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t id = positions_[c]++;
        const Request& r = stream[id % stream.size()];
        const auto& wire = batches_[r.batch].wire;
        std::uint64_t lo = 0, hi = 0;
        if (live) lo = router_->SnapshotOf(kStreamName)->rows_seen;
        const std::int32_t span =
            rec != nullptr ? rec->Begin(span_name, -1, id) : -1;
        const std::int64_t t0 = NowNs();
        std::optional<std::vector<double>> estimates;
        std::optional<std::vector<bool>> bits;
        if (r.op == Op::kEstimate) {
          estimates = client.EstimateMany(names_[r.name], wire);
        } else {
          bits = client.AreFrequent(names_[r.name], wire);
        }
        const std::int64_t t1 = NowNs();
        if (rec != nullptr) rec->End(span);
        if (live) hi = router_->SnapshotOf(kStreamName)->rows_seen;
        const std::size_t w = window.load(std::memory_order_relaxed);
        if (w < st.latency.size()) {
          st.latency[w].Add(static_cast<double>(t1 - t0) / 1e3);
        }
        const bool ok = (estimates.has_value() || bits.has_value()) &&
                        Verify(r, estimates ? &*estimates : nullptr,
                               bits ? &*bits : nullptr, lo, hi);
        if (ok) {
          st.queries.fetch_add(wire.size(), std::memory_order_relaxed);
        } else {
          st.failed.fetch_add(1, std::memory_order_relaxed);
        }
        st.requests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto sum = [&](auto member) {
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < conns; ++c) {
      total += (states[c].*member).load(std::memory_order_relaxed);
    }
    return total;
  };
  const auto start = std::chrono::steady_clock::now();
  const double stolen_at_start = StolenTicks();
  double stolen = stolen_at_start;
  auto window_start = start;
  std::uint64_t last_queries = 0;
  std::uint64_t last_requests = 0;
  std::uint64_t last_rows = live ? service_->rows_ingested() : 0;
  const std::uint64_t snapshots_at_start = snapshots_seen_.load();
  const double ticks_per_cpu_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double cpus =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  double quiet_seconds = 0.0;
  std::uint64_t quiet_requests = 0;
  for (std::size_t w = 1;; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(kWindowSeconds * w)));
    const auto now = std::chrono::steady_clock::now();
    const double span_s =
        std::chrono::duration<double>(now - window_start).count();
    window_start = now;
    window.fetch_add(1, std::memory_order_relaxed);
    const double stolen_now = StolenTicks();
    const double steal = stolen_now - stolen;
    stolen = stolen_now;
    out.window_steal.push_back(steal);
    out.window_seconds.push_back(span_s);
    const std::uint64_t queries = sum(&ConnState::queries);
    const std::uint64_t requests = sum(&ConnState::requests);
    out.window_qps.push_back(static_cast<double>(queries - last_queries) /
                             span_s);
    last_queries = queries;
    if (steal <= kQuietStealShare * span_s * ticks_per_cpu_s * cpus) {
      quiet_seconds += span_s;
      quiet_requests += requests - last_requests;
    }
    last_requests = requests;
    if (live) {
      const std::uint64_t rows = service_->rows_ingested();
      out.window_rows_s.push_back(static_cast<double>(rows - last_rows) /
                                  span_s);
      last_rows = rows;
      out.backlog_rows.push_back(
          static_cast<double>(rows_pushed_.load()) - static_cast<double>(rows));
    }
    const bool enough =
        quiet_seconds >= seconds && quiet_requests >= min_requests &&
        snapshots_seen_.load() - snapshots_at_start >= min_snapshots;
    if (enough || SecondsSince(start) >= cap_seconds) break;
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  out.seconds = SecondsSince(start);
  out.stolen_ticks = stolen - stolen_at_start;
  out.counted = LeastStolen(out.window_steal, out.window_seconds, seconds);
  // Requests that finished after the last window closed have no stolen
  // time of their own; they are not counted.
  for (std::size_t c = 0; c < conns; ++c) {
    out.requests += states[c].requests.load();
    out.queries += states[c].queries.load();
    out.failed += states[c].failed.load();
    const std::vector<LatencyHistogram>& lat = states[c].latency;
    for (std::size_t w = 0; w < out.window_steal.size(); ++w) {
      out.window_latency[w].Merge(lat[w]);
    }
  }
  return out;
}

void Bench::Teardown() {
  StopBackground();
  clients_.clear();
  subscriber_.reset();
  if (service_ != nullptr) {
    service_->Finish();  // publishes into router_, so it goes first
    service_.reset();
  }
  if (server_ != nullptr) {
    server_->StopAccepting();
    server_.reset();
  }
  router_.reset();
  pod_.reset();
  registry_.reset();
  {
    std::lock_guard<std::mutex> lock(book_mu_);
    book_.clear();
    book_keep_from_ = 0;
    first_snapshot_.reset();
  }
  reference_.clear();
  std::error_code ec;
  for (const std::string& path : paths_) std::filesystem::remove_all(path, ec);
  paths_.clear();
}

}  // namespace perfbench

// The traced layer ladder.
//
// The same request stream (connection 0's) is replayed down a ladder of
// public entry points, one more layer per rung:
//
//   core      ColumnStore::SupportCounts over the sketch's sample
//   engine    Engine::estimate_many / are_frequent
//   router    Router::EstimateMany / AreFrequent (acquire + coalescing)
//   protocol  frame header + QueryRequest encode/decode, the router rung
//             as a child span, reply encode/decode
//   loopback  SketchClient over LoopbackTransport into ServeConnection
//   tcp       SketchClient over TCP into the workload's ReactorServer
//
// A layer's self time is its rung minus the rung below (for protocol,
// the span's duration minus its router child). Each round replays the
// same requests through every rung, alternating the rung order between
// rounds so warm-up and drift hit all rungs alike; a rung's figure is
// the median over rounds of its mean per-request time. Single caller
// throughout, so the differences are layer costs, not contention.
//
// Side passes in every round: Router::Acquire and Engine::Open under the
// stream's name sequence, and for the live stream the ingest pipeline's
// pieces on the row pool: Wal::Append, StreamingBuilder::Observe,
// Wal::Checkpoint, and the publish path (Summary -> Engine::FromFile ->
// Router::Publish).
#include <filesystem>
#include <functional>
#include <optional>

#include "ingest/wal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "sketch/builtin_algorithms.h"
#include "sketch/sketch_view.h"
#include "sketch/streaming.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ifsketch;

constexpr char kLadderStream[] = "ladder";

/// Per-round mean of `values`, grouped by round; then the median.
double MedianOfRoundMeans(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> means;
  for (const auto& r : rounds) {
    if (r.empty()) continue;
    double sum = 0.0;
    for (const double v : r) sum += v;
    means.push_back(sum / static_cast<double>(r.size()));
  }
  return means.empty() ? 0.0 : Median(means);
}

}  // namespace

LadderResult Bench::RunLadder(double seconds, SpanRecorder* rec) {
  LadderResult out;
  const bool live = config_.files == 0;
  const core::SketchParams params = ParamsFor(config_);
  const auto fail = [&out] {
    ++out.requests;
    ++out.failed;
  };

  // The live stream stops moving first, so every rung sees one snapshot.
  if (live) service_->Finish();

  // Layer objects, built outside any span. The core rung reads the same
  // column layout the engine queries: the file's mapped column section,
  // or for the in-memory snapshot the columns decoded from its summary.
  std::vector<std::shared_ptr<const Engine>> engines;
  std::vector<sketch::SketchView> views;
  std::vector<core::ColumnStore> stores;
  for (std::size_t n = 0; n < names_.size(); ++n) {
    std::shared_ptr<const Engine> e;
    std::optional<sketch::SketchView> view;
    if (live) {
      e = router_->Acquire(names_[n]);
    } else {
      auto opened = Engine::Open(paths_[n]);
      if (opened.has_value()) e = std::make_shared<const Engine>(*opened);
      view = sketch::ViewSketchFile(paths_[n]);
    }
    if (e == nullptr || (!live && (!view || !view->columns))) {
      fail();
      return out;
    }
    if (live) {
      stores.push_back(core::ColumnStore::FromRowMajorBits(
          e->file().summary, config_.d));
    } else {
      const sketch::ArenaColumns& c = *view->columns;
      stores.push_back(core::ColumnStore::FromColumnWords(
          c.words, c.rows, c.d, c.stride_words));
      views.push_back(std::move(*view));
    }
    engines.push_back(std::move(e));
  }
  std::vector<std::vector<std::vector<double>>> expected = expected_;
  std::vector<std::vector<std::vector<bool>>> expected_bits = expected_bits_;
  if (live) {
    expected.assign(1, {});
    expected_bits.assign(1, {});
    for (const Batch& b : batches_) {
      std::vector<double> answers;
      engines[0]->estimate_many(b.itemsets, &answers);
      expected[0].push_back(std::move(answers));
      expected_bits[0].push_back({});
    }
  }
  const auto check = [&](const Request& r, const std::vector<double>* est,
                         const std::vector<bool>* bits) {
    ++out.requests;
    const bool ok = est != nullptr
                        ? BitIdentical(*est, expected[r.name][r.batch])
                        : *bits == expected_bits[r.name][r.batch];
    if (!ok) ++out.failed;
  };
  // The loopback and tcp rungs: the same client call over two transports.
  const auto client_rung = [&](serve::SketchClient& client) {
    return [&, &client = client](const Request& r, std::int32_t,
                                 std::uint64_t) {
      const auto& wire = batches_[r.batch].wire;
      if (r.op == Op::kEstimate) {
        const auto a = client.EstimateMany(names_[r.name], wire);
        a.has_value() ? check(r, &*a, nullptr) : fail();
      } else {
        const auto a = client.AreFrequent(names_[r.name], wire);
        a.has_value() ? check(r, nullptr, &*a) : fail();
      }
    };
  };

  auto [loop_client_end, loop_server_end] =
      serve::LoopbackTransport::CreatePair();
  std::thread loop_server([this, t = std::move(loop_server_end)]() mutable {
    serve::ServeConnection(*router_, *t);
  });
  auto loop_client =
      std::make_unique<serve::SketchClient>(std::move(loop_client_end));

  const std::uint32_t s_router = rec->Intern("serve.router");
  std::uint64_t protocol_bytes = 0;
  std::uint64_t protocol_queries = 0;

  using Rung = std::function<void(const Request&, std::int32_t root,
                                  std::uint64_t id)>;
  const std::vector<std::pair<std::string, Rung>> rungs = {
      {"rung.core",
       [&](const Request& r, std::int32_t, std::uint64_t) {
         std::vector<std::size_t> counts;
         stores[r.name].SupportCounts(batches_[r.batch].itemsets, &counts);
       }},
      {"rung.engine",
       [&](const Request& r, std::int32_t, std::uint64_t) {
         const auto& ts = batches_[r.batch].itemsets;
         if (r.op == Op::kEstimate) {
           std::vector<double> a;
           engines[r.name]->estimate_many(ts, &a);
           check(r, &a, nullptr);
         } else {
           std::vector<bool> a;
           engines[r.name]->are_frequent(ts, &a);
           check(r, nullptr, &a);
         }
       }},
      {"rung.router",
       [&](const Request& r, std::int32_t, std::uint64_t) {
         const auto& ts = batches_[r.batch].itemsets;
         if (r.op == Op::kEstimate) {
           std::vector<double> a;
           router_->EstimateMany(names_[r.name], ts, &a);
           check(r, &a, nullptr);
         } else {
           std::vector<bool> a;
           router_->AreFrequent(names_[r.name], ts, &a);
           check(r, nullptr, &a);
         }
       }},
      {"rung.protocol",
       [&](const Request& r, std::int32_t root, std::uint64_t id) {
         const bool est = r.op == Op::kEstimate;
         serve::QueryRequest request;
         request.sketch = names_[r.name];
         request.queries = batches_[r.batch].wire;
         std::string body;
         char header[serve::kFrameHeaderBytes];
         serve::EncodeQueryRequest(request, &body);
         serve::EncodeFrameHeader(
             est ? serve::Opcode::kEstimate : serve::Opcode::kAreFrequent, 0,
             static_cast<std::uint32_t>(body.size()), header);
         const auto h = serve::DecodeFrameHeader(header, sizeof(header));
         const auto decoded = serve::DecodeQueryRequest(body);
         if (!h.has_value() || !decoded.has_value()) {
           fail();
           return;
         }
         std::vector<core::Itemset> ts;
         ts.reserve(decoded->queries.size());
         for (const auto& attrs : decoded->queries) {
           core::Itemset t(config_.d);
           for (const std::uint32_t a : attrs) t.Add(a);
           ts.push_back(std::move(t));
         }
         std::string reply;
         std::vector<double> a;
         std::vector<bool> bits;
         const std::int32_t child = rec->Begin(s_router, root, id);
         if (est) {
           router_->EstimateMany(decoded->sketch, ts, &a);
         } else {
           router_->AreFrequent(decoded->sketch, ts, &bits);
         }
         rec->End(child);
         if (est) {
           serve::EncodeEstimateReply(a, &reply);
         } else {
           serve::EncodeAreFrequentReply(bits, &reply);
         }
         serve::EncodeFrameHeader(est ? serve::Opcode::kEstimateReply
                                      : serve::Opcode::kAreFrequentReply,
                                  0, static_cast<std::uint32_t>(reply.size()),
                                  header);
         const auto rh = serve::DecodeFrameHeader(header, sizeof(header));
         protocol_bytes += 2 * serve::kFrameHeaderBytes + body.size() +
                           reply.size();
         protocol_queries += ts.size();
         if (est) {
           const auto back = serve::DecodeEstimateReply(reply);
           if (!rh.has_value() || !back.has_value()) {
             fail();
             return;
           }
           check(r, &*back, nullptr);
         } else {
           const auto back = serve::DecodeAreFrequentReply(reply);
           if (!rh.has_value() || !back.has_value()) {
             fail();
             return;
           }
           check(r, nullptr, &*back);
         }
       }},
      {"rung.loopback", client_rung(*loop_client)},
      {"rung.tcp", client_rung(*clients_[0])},
  };
  std::vector<std::uint32_t> rung_names;
  for (const auto& [name, fn] : rungs) rung_names.push_back(rec->Intern(name));
  const std::uint32_t s_acquire = rec->Intern("serve.pod.acquire");
  const std::uint32_t s_open = rec->Intern("sketch.open");

  // Live stream: a private builder + WAL replaying the row pool, and a
  // second stream name on the router to publish into.
  std::unique_ptr<core::SketchAlgorithm> algorithm;
  std::unique_ptr<sketch::StreamingBuilder> builder;
  std::unique_ptr<ingest::Wal> wal;
  util::Rng ingest_rng(seed_);
  const std::string wal_dir = tmp_dir_ + "/ladder-wal";
  if (live) {
    algorithm = sketch::BuiltinRegistry().Create("STREAM-SUBSAMPLE");
    const auto* streaming =
        dynamic_cast<const sketch::StreamingSketch*>(algorithm.get());
    builder = streaming->NewBuilder(config_.d, params, ingest_rng);
    ingest::WalOptions wo;
    wo.dir = wal_dir;
    wo.registry = registry_.get();
    std::string error;
    wal = ingest::Wal::Open(wo, "STREAM-SUBSAMPLE", params, config_.d, seed_,
                            builder.get(), &ingest_rng, nullptr, &error);
    if (wal == nullptr) fail();
    router_->AddStream(kLadderStream);
  }
  const std::uint32_t s_append = rec->Intern("ingest.wal.append");
  const std::uint32_t s_observe = rec->Intern("sketch.observe");
  const std::uint32_t s_checkpoint = rec->Intern("ingest.wal.checkpoint");
  const std::uint32_t s_publish = rec->Intern("ingest.publish");
  const std::uint32_t s_summary = rec->Intern("sketch.summary");
  const std::uint32_t s_from_file = rec->Intern("engine.from_file");
  const std::uint32_t s_router_publish = rec->Intern("serve.router.publish");
  std::uint64_t ladder_rows = 0;

  // Per-request times of every (rung, round), for the per-round means.
  const std::size_t kRungs = rungs.size();
  const std::size_t kProtocolRung = 3;
  std::vector<std::vector<std::vector<double>>> rung_ns(kRungs);
  std::vector<std::vector<double>> protocol_self_ns;
  std::vector<std::vector<double>> acquire_us, open_us, append_ns,
      observe_ns, checkpoint_us, publish_us;

  const std::vector<Request>& stream = streams_[0];
  const std::size_t k = config_.ladder_requests;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t next_id = 0;
  for (std::size_t round = 0;; ++round) {
    const std::uint64_t first_id = next_id;
    for (auto& v : rung_ns) v.emplace_back();
    protocol_self_ns.emplace_back();
    for (std::size_t step = 0; step < kRungs; ++step) {
      const std::size_t g = round % 2 == 0 ? step : kRungs - 1 - step;
      const std::size_t begin = rec->spans().size();
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint64_t id = first_id + i;
        const Request& r = stream[id % stream.size()];
        const std::int32_t root = rec->Begin(rung_names[g], -1, id);
        rungs[g].second(r, root, id);
        rec->End(root);
      }
      // Self times of this pass's spans (roots and their children).
      std::vector<Span> pass(rec->spans().begin() + static_cast<long>(begin),
                             rec->spans().end());
      for (Span& s : pass) {
        if (s.parent >= 0) s.parent -= static_cast<std::int32_t>(begin);
      }
      const std::vector<std::int64_t> self = SelfTimes(pass);
      for (std::size_t i = 0; i < pass.size(); ++i) {
        if (pass[i].parent >= 0) continue;
        rung_ns[g].back().push_back(
            static_cast<double>(pass[i].end - pass[i].start));
        if (g == kProtocolRung) {
          protocol_self_ns.back().push_back(static_cast<double>(self[i]));
        }
      }
    }
    next_id += k;

    acquire_us.emplace_back();
    open_us.emplace_back();
    for (std::size_t i = 0; i < k; ++i) {
      const Request& r = stream[(first_id + i) % stream.size()];
      const std::int32_t a = rec->Begin(s_acquire, -1, first_id + i);
      const bool acquired = router_->Acquire(names_[r.name]) != nullptr;
      rec->End(a);
      const Span& sa = rec->spans()[static_cast<std::size_t>(a)];
      acquire_us.back().push_back(static_cast<double>(sa.end - sa.start) /
                                  1e3);
      ++out.requests;
      if (!acquired) ++out.failed;
      if (!live) {
        const std::int32_t o = rec->Begin(s_open, -1, first_id + i);
        const bool opened = Engine::Open(paths_[r.name]).has_value();
        rec->End(o);
        const Span& so = rec->spans()[static_cast<std::size_t>(o)];
        open_us.back().push_back(static_cast<double>(so.end - so.start) /
                                 1e3);
        ++out.requests;
        if (!opened) ++out.failed;
      }
    }

    if (live && wal != nullptr) {
      append_ns.emplace_back();
      observe_ns.emplace_back();
      checkpoint_us.emplace_back();
      publish_us.emplace_back();
      // One snapshot interval per round: every row appended and
      // observed, then one checkpoint and one publish.
      for (std::size_t i = 0; i < config_.rows_per_snapshot; ++i) {
        const util::BitVector& row = db_.Row(ladder_rows % db_.num_rows());
        const std::uint64_t id = ladder_rows++;
        const std::int32_t a = rec->Begin(s_append, -1, id);
        const bool appended = wal->Append(row);
        rec->End(a);
        const std::int32_t o = rec->Begin(s_observe, -1, id);
        builder->Observe(row);
        rec->End(o);
        const Span& sa = rec->spans()[static_cast<std::size_t>(a)];
        const Span& so = rec->spans()[static_cast<std::size_t>(o)];
        append_ns.back().push_back(static_cast<double>(sa.end - sa.start));
        observe_ns.back().push_back(static_cast<double>(so.end - so.start));
        if (!appended) fail();
      }
      const std::int32_t c = rec->Begin(s_checkpoint, -1, ladder_rows);
      const bool checkpointed =
          wal->Checkpoint(*builder, ingest_rng, ladder_rows);
      rec->End(c);
      const std::int32_t p = rec->Begin(s_publish, -1, ladder_rows);
      const std::int32_t ps = rec->Begin(s_summary, p, ladder_rows);
      sketch::SketchFile file;
      file.algorithm = "STREAM-SUBSAMPLE";
      file.params = params;
      file.n = ladder_rows;
      file.d = config_.d;
      file.summary = builder->Summary();
      rec->End(ps);
      const std::int32_t pf = rec->Begin(s_from_file, p, ladder_rows);
      auto engine = Engine::FromFile(std::move(file));
      rec->End(pf);
      const std::int32_t pp = rec->Begin(s_router_publish, p, ladder_rows);
      if (engine.has_value()) {
        router_->Publish(kLadderStream,
                         std::make_shared<const Engine>(std::move(*engine)),
                         ladder_rows);
      }
      rec->End(pp);
      rec->End(p);
      ++out.requests;
      if (!checkpointed || !engine.has_value()) ++out.failed;
      const Span& sc = rec->spans()[static_cast<std::size_t>(c)];
      const Span& sp = rec->spans()[static_cast<std::size_t>(p)];
      checkpoint_us.back().push_back(static_cast<double>(sc.end - sc.start) /
                                     1e3);
      publish_us.back().push_back(static_cast<double>(sp.end - sp.start) /
                                  1e3);
    }

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (round >= 2 && elapsed >= seconds) break;
  }

  loop_client.reset();  // hang up: ServeConnection sees EOF and returns
  loop_server.join();
  wal.reset();
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);

  double queries_per_request = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    queries_per_request += static_cast<double>(
        batches_[stream[i % stream.size()].batch].itemsets.size());
  }
  queries_per_request /= static_cast<double>(k);

  std::vector<double> rung(kRungs);
  for (std::size_t g = 0; g < kRungs; ++g) {
    rung[g] = MedianOfRoundMeans(rung_ns[g]);
  }
  auto& m = out.metrics;
  m["core.support_counts_ns_per_query"] = {rung[0] / queries_per_request,
                                           "ns"};
  m["engine.self_ns_per_query"] = {(rung[1] - rung[0]) / queries_per_request,
                                   "ns"};
  m["serve.router.self_ns_per_request"] = {rung[2] - rung[1], "ns"};
  m["serve.protocol.ns_per_request"] = {MedianOfRoundMeans(protocol_self_ns),
                                        "ns"};
  m["serve.protocol.bytes_per_query"] = {
      protocol_queries > 0 ? static_cast<double>(protocol_bytes) /
                                 static_cast<double>(protocol_queries)
                           : 0.0,
      "B"};
  m["serve.transport.self_ns_per_request"] = {rung[4] - rung[3], "ns"};
  m["serve.reactor.self_ns_per_request"] = {rung[5] - rung[4], "ns"};
  m["serve.pod.acquire_us"] = {MedianOfRoundMeans(acquire_us), "us"};
  m["sketch.open_us"] = {MedianOfRoundMeans(open_us), "us"};
  m["sketch.observe_ns_per_row"] = {MedianOfRoundMeans(observe_ns), "ns"};
  m["ingest.wal.append_ns_per_row"] = {MedianOfRoundMeans(append_ns), "ns"};
  m["ingest.wal.checkpoint_us"] = {MedianOfRoundMeans(checkpoint_us), "us"};
  m["ingest.publish_us"] = {MedianOfRoundMeans(publish_us), "us"};
  return out;
}

}  // namespace perfbench

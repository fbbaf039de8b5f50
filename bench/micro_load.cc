// micro_load: sketch load-path latency on the perf trajectory.
//
//   micro_load --json [out.json] [--rounds 200] [--rows 20000] [--cols 64]
//
// Measures what PR 5's zero-copy work targets: how long it takes to get
// from an IFSK file on disk to answered queries, on the mapped path
// (mmap + in-place validation + borrowed column views) vs the copying
// path (in-place parse + summary copy + transpose). One SUBSAMPLE and one
// RELEASE-DB sketch are built and saved once; every row then re-opens
// those same files, so the page cache is warm and the numbers isolate
// the software cost of loading (true cold-cache opens depend on the
// storage stack, not on this code).
//
// Emits the repo's stable bench schema
//   {"kernel": str, "threads": int, "batch": int, "ns_per_query": float}
// with one row per kernel@path (threads is 1 unless noted):
//   open_cold@mapped/copied    first in-process open + first query
//                              (includes view materialization); batch=1,
//                              ns per open
//   open_warm@mapped/copied    steady-state re-open + one query, the
//                              pod re-admission cost; batch=1, ns per
//                              open (the PR targets mapped >= 5x faster)
//   open_warm@mapped_crc       the same mapped re-open of a checksummed
//                              v2 file: adds the trailer's O(file)
//                              CRC32C pass on the active kernel tier
//   evict_reload@mapped/copied SketchPod churn: two sketches ping-pong
//                              through a budget that holds only one, so
//                              every Acquire evicts (munmaps) and
//                              reloads; batch=1, ns per Acquire+query
//   hit_under_churn@mapped     3 threads Acquire one resident (pinned)
//                              sketch while a 4th ping-pongs two others
//                              through a budget of two sketches, so
//                              every churn Acquire loads and evicts
//                              (munmaps); each hit is followed by a
//                              16-query request; threads=3, batch=1,
//                              mean ns per hit Acquire (the call alone)
//                              -- teardown done under the pod lock
//                              shows up here
//   zipf_churn@mapped          32 small SUBSAMPLE files behind a
//                              budget of 8, names drawn Zipf(1), each
//                              Acquire followed by a 16-query request;
//                              batch=1, ns per Acquire+request, plus a
//                              "hit_ratio" field (hits / (hits + loads))
//                              that records the pod's admission policy
//   query_steady@mapped/copied batched estimate_many on a held-open
//                              engine; batch=10000, ns per query --
//                              mapped and copied must converge here
//                              (same kernels, only the bytes' owner
//                              differs), and answers are asserted
//                              bit-identical between the paths on every
//                              run.
//   crc32c@<tier>              util::Crc32cExtend's kernel on every
//                              usable tier over a 256 KiB buffer;
//                              batch=256 (KiB per pass), ns per KiB --
//                              every tier's checksum is asserted equal
//                              to the scalar reference's.
// The mapped rows open arena v2 files; the copied rows force
// Engine::LoadMode::kCopied on the same v2 files (and the evict_reload
// copied row serves legacy v1 files, the pre-PR-5 configuration).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "engine.h"
#include "serve/pod.h"
#include "util/kernels.h"
#include "util/random.h"

namespace {

using namespace ifsketch;

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.05;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

struct Row {
  std::string kernel;
  std::size_t batch;
  double ns_per_query;
  std::size_t threads = 1;
  std::optional<double> hit_ratio = std::nullopt;  // pod rows only
};

std::vector<core::Itemset> MakeQueries(std::size_t d, std::size_t count) {
  util::Rng rng(4711);
  std::vector<core::Itemset> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(d);
    while (t.size() < 3) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
    }
    queries.push_back(std::move(t));
  }
  return queries;
}

// The churn rows alternate names that are used equally often, so the
// pod's frequency gate sees ties and must admit every load (each churn
// Acquire evicts and reloads, as the rows intend).
std::uint64_t Bypasses(const serve::SketchPod& pod) {
  std::uint64_t total = 0;
  for (const serve::SketchStats& s : pod.stats()) total += s.bypasses;
  return total;
}

bool Identical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;  // bitwise-exact doubles
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::size_t rounds = 200;
  std::size_t rows_n = 20000;
  std::size_t cols_d = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--rows" && i + 1 < argc) {
      rows_n = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--cols" && i + 1 < argc) {
      cols_d = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: micro_load --json [out.json] [--rounds 200] "
                   "[--rows 20000] [--cols 64]\n");
      return 2;
    }
  }
  if (rounds == 0 || rows_n == 0 || cols_d < 4) {
    std::fprintf(stderr, "error: --rounds/--rows/--cols need sane values\n");
    return 2;
  }

  // One big row-major sketch (RELEASE-DB: the database itself, the
  // worst case for a copying load) saved at both format versions.
  util::Rng rng(71);
  const core::Database db =
      data::PowerLawBaskets(rows_n, cols_d, 1.0, 0.5, 4, 3, 0.2, rng);
  auto built = Engine::Build(db, "RELEASE-DB", Params(), rng);
  if (!built.has_value()) {
    std::fprintf(stderr, "error: Engine::Build failed\n");
    return 1;
  }
  const std::string v2_path = "micro_load_tmp_v2.ifsk";
  const std::string v2b_path = "micro_load_tmp_v2b.ifsk";
  const std::string v1_path = "micro_load_tmp_v1.ifsk";
  const std::string v1b_path = "micro_load_tmp_v1b.ifsk";
  const std::string crc_path = "micro_load_tmp_v2crc.ifsk";
  if (!built->Save(v2_path) || !built->Save(v2b_path) ||
      !built->Save(crc_path, nullptr, sketch::SketchChecksum::kCrc32c) ||
      !sketch::SaveSketchFile(v1_path, built->file(),
                              sketch::arena::kVersionLegacy) ||
      !sketch::SaveSketchFile(v1b_path, built->file(),
                              sketch::arena::kVersionLegacy)) {
    std::fprintf(stderr, "error: cannot write bench sketches\n");
    return 1;
  }

  const auto probe = MakeQueries(cols_d, 1);
  const auto batch = MakeQueries(cols_d, 10000);
  std::vector<double> expected;
  built->estimate_many(batch, &expected);

  std::vector<Row> rows;
  double warm_ns[2] = {0.0, 0.0};  // [mapped, copied] for the ratio line

  const Engine::LoadMode modes[2] = {Engine::LoadMode::kMapped,
                                     Engine::LoadMode::kCopied};
  const char* suffix[2] = {"@mapped", "@copied"};
  for (int m = 0; m < 2; ++m) {
    // -- open_cold: first open in this process (first query included, so
    // lazy views and, for the mapped path, first page touches count).
    {
      const auto start = std::chrono::steady_clock::now();
      auto engine = Engine::Open(v2_path, modes[m]);
      if (!engine.has_value() || engine->estimate(probe[0]) < 0.0) {
        std::fprintf(stderr, "error: cold open failed\n");
        return 1;
      }
      rows.push_back({std::string("open_cold") + suffix[m], 1,
                      ElapsedNs(start)});
    }

    // -- open_warm: steady-state re-open + one query per round.
    {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < rounds; ++r) {
        auto engine = Engine::Open(v2_path, modes[m]);
        if (!engine.has_value() || engine->estimate(probe[0]) < 0.0) {
          std::fprintf(stderr, "error: warm open failed\n");
          return 1;
        }
      }
      const double ns = ElapsedNs(start) / static_cast<double>(rounds);
      warm_ns[m] = ns;
      rows.push_back({std::string("open_warm") + suffix[m], 1, ns});
    }

    // -- open_warm@mapped_crc: the mapped re-open of a checksummed file.
    if (modes[m] == Engine::LoadMode::kMapped) {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < rounds; ++r) {
        auto engine = Engine::Open(crc_path, modes[m]);
        if (!engine.has_value() || engine->estimate(probe[0]) < 0.0) {
          std::fprintf(stderr, "error: checksummed warm open failed\n");
          return 1;
        }
      }
      rows.push_back({"open_warm@mapped_crc", 1,
                      ElapsedNs(start) / static_cast<double>(rounds)});
    }

    // -- evict_reload: pod churn with a budget that holds one sketch.
    // The mapped row serves the v2 files (Acquire maps them); the copied
    // row serves v1 files (Acquire's auto mode copies those) --
    // i.e. exactly the pre-arena serving configuration.
    {
      const std::string& pa = m == 0 ? v2_path : v1_path;
      const std::string& pb = m == 0 ? v2b_path : v1b_path;
      const auto budget_probe = Engine::Open(pa);
      if (!budget_probe.has_value()) {
        std::fprintf(stderr, "error: cannot reopen %s\n", pa.c_str());
        return 1;
      }
      serve::SketchPod pod(budget_probe->resident_bytes());
      pod.AddSketch("a", pa);
      pod.AddSketch("b", pb);
      const std::size_t churn = rounds < 50 ? rounds : 50;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < churn; ++r) {
        const auto engine = pod.Acquire(r % 2 == 0 ? "a" : "b");
        if (engine == nullptr || engine->estimate(probe[0]) < 0.0) {
          std::fprintf(stderr, "error: pod churn failed\n");
          return 1;
        }
      }
      if (Bypasses(pod) != 0) {
        std::fprintf(stderr, "error: evict_reload load was not admitted\n");
        return 1;
      }
      rows.push_back({std::string("evict_reload") + suffix[m], 1,
                      ElapsedNs(start) / static_cast<double>(churn)});
    }

    // -- query_steady: batched queries on a held-open engine; answers
    // must be bit-identical to the built engine's on either path.
    {
      auto engine = Engine::Open(v2_path, modes[m]);
      if (!engine.has_value()) {
        std::fprintf(stderr, "error: steady open failed\n");
        return 1;
      }
      std::vector<double> answers;
      engine->estimate_many(batch, &answers);  // warm the views
      if (!Identical(answers, expected)) {
        std::fprintf(stderr,
                     "error: %s answers diverged from the built engine\n",
                     suffix[m]);
        return 1;
      }
      const std::size_t reps = 10;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < reps; ++r) {
        engine->estimate_many(batch, &answers);
      }
      rows.push_back({std::string("query_steady") + suffix[m], batch.size(),
                      ElapsedNs(start) /
                          static_cast<double>(reps * batch.size())});
    }
  }

  // -- hit_under_churn@mapped: hits on a resident sketch while another
  // thread's loads evict. The sketches are SUBSAMPLE files of the shape
  // the server hosts (eps 0.02, ~280 KB mapped). "hot" is published, so
  // it is pinned and every hit really is a hit; the budget leaves room
  // for one churn sketch beside it, so each churn Acquire loads one name
  // and evicts the other. Each hit thread answers a 16-query request
  // between Acquires, as a server loop thread does; only the Acquire
  // call is timed.
  {
    core::SketchParams churn_params = Params();
    churn_params.eps = 0.02;
    auto sample = Engine::Build(db, "SUBSAMPLE", churn_params, rng);
    const std::string paths[2] = {"micro_load_tmp_churn_a.ifsk",
                                  "micro_load_tmp_churn_b.ifsk"};
    if (!sample.has_value() || !sample->Save(paths[0]) ||
        !sample->Save(paths[1])) {
      std::fprintf(stderr, "error: cannot write churn sketches\n");
      return 1;
    }
    auto hot = Engine::Open(paths[0]);
    if (!hot.has_value()) {
      std::fprintf(stderr, "error: cannot reopen %s\n", paths[0].c_str());
      return 1;
    }
    serve::SketchPod pod(2 * hot->resident_bytes());
    pod.AddSketch("a", paths[0]);
    pod.AddSketch("b", paths[1]);
    pod.Publish("hot", std::make_shared<const Engine>(*std::move(hot)), 0);
    const std::vector<core::Itemset> request(batch.begin(),
                                             batch.begin() + 16);
    constexpr std::size_t kHitThreads = 3;
    const std::size_t hits = rounds * 100;
    std::atomic<bool> done{false};
    std::atomic<bool> failed{false};
    std::thread churner([&] {
      for (std::size_t r = 0; !done.load(std::memory_order_relaxed); ++r) {
        if (pod.Acquire(r % 2 == 0 ? "a" : "b") == nullptr) {
          failed.store(true);
          return;
        }
      }
    });
    std::vector<double> thread_ns(kHitThreads, 0.0);
    std::vector<std::thread> hitters;
    for (std::size_t t = 0; t < kHitThreads; ++t) {
      hitters.emplace_back([&, t] {
        std::vector<double> answers;
        double acquire_ns = 0.0;
        for (std::size_t r = 0; r < hits; ++r) {
          const auto start = std::chrono::steady_clock::now();
          const auto engine = pod.Acquire("hot");
          acquire_ns += ElapsedNs(start);
          if (engine == nullptr) {
            failed.store(true);
            return;
          }
          engine->estimate_many(request, &answers);
        }
        thread_ns[t] = acquire_ns / static_cast<double>(hits);
      });
    }
    for (auto& th : hitters) th.join();
    done.store(true);
    churner.join();
    for (const std::string& path : paths) std::remove(path.c_str());
    if (failed.load()) {
      std::fprintf(stderr, "error: hit_under_churn Acquire failed\n");
      return 1;
    }
    if (Bypasses(pod) != 0) {
      std::fprintf(stderr, "error: hit_under_churn load was not admitted\n");
      return 1;
    }
    double mean_ns = 0.0;
    for (double ns : thread_ns) mean_ns += ns / kHitThreads;
    rows.push_back({"hit_under_churn@mapped", 1, mean_ns, kHitThreads});
  }

  // -- zipf_churn@mapped: the serve_churn regime in one thread. The
  // working set (32 names) is four times the pod (8 files), names are
  // drawn Zipf(1), so which names stay resident decides the hit ratio.
  // Every file holds the same small sample, so any miss costs the same.
  {
    constexpr std::size_t kNames = 32;
    constexpr std::size_t kBudgetFiles = 8;
    core::SketchParams zipf_params = Params();
    zipf_params.eps = 0.1;
    auto sample = Engine::Build(db, "SUBSAMPLE", zipf_params, rng);
    if (!sample.has_value()) {
      std::fprintf(stderr, "error: cannot build the zipf sketch\n");
      return 1;
    }
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < kNames; ++i) {
      paths.push_back("micro_load_tmp_zipf_" + std::to_string(i) + ".ifsk");
      if (!sample->Save(paths.back())) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     paths.back().c_str());
        return 1;
      }
    }
    const auto probe_zipf = Engine::Open(paths[0]);
    if (!probe_zipf.has_value()) {
      std::fprintf(stderr, "error: cannot reopen %s\n", paths[0].c_str());
      return 1;
    }
    serve::SketchPod pod(kBudgetFiles * probe_zipf->resident_bytes());
    std::vector<std::string> names;
    for (std::size_t i = 0; i < kNames; ++i) {
      names.push_back("z" + std::to_string(i));
      pod.AddSketch(names.back(), paths[i]);
    }
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t i = 0; i < kNames; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf.push_back(total);
    }
    util::Rng zipf_rng(4713);
    auto draw = [&] {
      const auto it = std::upper_bound(cdf.begin(), cdf.end(),
                                       zipf_rng.UniformDouble() * total);
      return std::min<std::size_t>(
          static_cast<std::size_t>(it - cdf.begin()), kNames - 1);
    };
    const std::vector<core::Itemset> request(batch.begin(),
                                             batch.begin() + 16);
    std::vector<double> answers;
    bool failed = false;
    auto run_requests = [&](std::size_t requests) {
      for (std::size_t r = 0; r < requests && !failed; ++r) {
        const auto engine = pod.Acquire(names[draw()]);
        if (engine == nullptr) {
          failed = true;
          break;
        }
        engine->estimate_many(request, &answers);
      }
    };
    auto hits_and_loads = [&pod] {
      std::pair<double, double> sum{0.0, 0.0};
      for (const serve::SketchStats& s : pod.stats()) {
        sum.first += static_cast<double>(s.hits);
        sum.second += static_cast<double>(s.loads);
      }
      return sum;
    };
    // Untimed warm-up: fill the pod and let the access counts settle.
    run_requests(10 * kNames * kBudgetFiles);
    const auto before = hits_and_loads();
    const std::size_t requests = rounds * 100;
    const auto start = std::chrono::steady_clock::now();
    run_requests(requests);
    const double ns = ElapsedNs(start) / static_cast<double>(requests);
    const auto after = hits_and_loads();
    for (const std::string& path : paths) std::remove(path.c_str());
    if (failed) {
      std::fprintf(stderr, "error: zipf_churn Acquire failed\n");
      return 1;
    }
    const double hits = after.first - before.first;
    const double loads = after.second - before.second;
    rows.push_back({"zipf_churn@mapped", 1, ns, 1, hits / (hits + loads)});
  }

  // -- crc32c@<tier>: the checksum kernel alone, per usable tier.
  {
    constexpr std::size_t kKiB = 256;
    std::vector<unsigned char> bytes(kKiB * 1024);
    util::Rng crc_rng(4712);
    for (auto& b : bytes) b = static_cast<unsigned char>(crc_rng.Next());
    const std::uint32_t reference = util::ScalarKernels().crc32c_extend(
        0, bytes.data(), bytes.size());
    for (util::KernelTier tier : util::SupportedKernelTiers()) {
      const util::BitKernels* kernels = util::KernelsForTier(tier);
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < rounds; ++r) {
        if (kernels->crc32c_extend(0, bytes.data(), bytes.size()) !=
            reference) {
          std::fprintf(stderr, "error: crc32c@%s diverged from scalar\n",
                       util::KernelTierName(tier));
          return 1;
        }
      }
      rows.push_back({std::string("crc32c@") + util::KernelTierName(tier),
                      kKiB,
                      ElapsedNs(start) / static_cast<double>(rounds * kKiB)});
    }
  }

  std::remove(v2_path.c_str());
  std::remove(v2b_path.c_str());
  std::remove(crc_path.c_str());
  std::remove(v1_path.c_str());
  std::remove(v1b_path.c_str());

  std::fprintf(stderr, "warm re-open: mapped %.0f ns, copied %.0f ns -> %.1fx"
               " (target >= 5x)\n",
               warm_ns[0], warm_ns[1],
               warm_ns[0] > 0.0 ? warm_ns[1] / warm_ns[0] : 0.0);

  std::FILE* out =
      out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "  {\"kernel\": \"%s\", \"threads\": %zu, \"batch\": %zu, "
                 "\"ns_per_query\": %.1f",
                 rows[i].kernel.c_str(), rows[i].threads, rows[i].batch,
                 rows[i].ns_per_query);
    if (rows[i].hit_ratio.has_value()) {
      std::fprintf(out, ", \"hit_ratio\": %.4f", *rows[i].hit_ratio);
    }
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  if (out != stdout) std::fclose(out);
  return 0;
}

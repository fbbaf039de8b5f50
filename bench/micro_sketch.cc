// Microbenchmarks: sketch build and query throughput.

#include <benchmark/benchmark.h>

#include "data/generators.h"
#include "sketch/release_answers.h"
#include "sketch/release_db.h"
#include "sketch/reservoir.h"
#include "sketch/subsample.h"
#include "util/random.h"

namespace {

using namespace ifsketch;

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 2;
  p.eps = 0.05;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

// The repo benchmark's sketch shape (perfbench workloads): k = 3,
// delta = 0.05, for-all estimator guarantee.
core::SketchParams BenchmarkParams(double eps) {
  core::SketchParams p;
  p.k = 3;
  p.eps = eps;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

void BM_SubsampleBuild(benchmark::State& state) {
  util::Rng rng(1);
  const core::Database db = data::UniformRandom(
      static_cast<std::size_t>(state.range(0)), 64, 0.4, rng);
  sketch::SubsampleSketch algo;
  const auto p = Params();
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.Build(db, p, rng));
  }
}
BENCHMARK(BM_SubsampleBuild)->Arg(10000)->Arg(100000);

// serve_churn's per-file build: 100k x 64 rows, eps 0.02 -> s = 17,908
// rows drawn by Floyd's algorithm.
void BM_SubsampleWorBuild(benchmark::State& state) {
  util::Rng rng(6);
  const core::Database db = data::UniformRandom(
      static_cast<std::size_t>(state.range(0)), 64, 0.4, rng);
  sketch::SubsampleWithoutReplacementSketch algo;
  const auto p = BenchmarkParams(0.02);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.Build(db, p, rng));
  }
}
BENCHMARK(BM_SubsampleWorBuild)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SubsampleQuery(benchmark::State& state) {
  util::Rng rng(2);
  const core::Database db = data::UniformRandom(50000, 64, 0.4, rng);
  sketch::SubsampleSketch algo;
  const auto p = Params();
  const auto summary = algo.Build(db, p, rng);
  const auto est = algo.LoadEstimator(summary, p, 64, 50000);
  const core::Itemset t(64, {3, 17});
  for (auto _ : state) {
    benchmark::DoNotOptimize(est->EstimateFrequency(t));
  }
}
BENCHMARK(BM_SubsampleQuery);

void BM_ReleaseAnswersBuild(benchmark::State& state) {
  util::Rng rng(3);
  const core::Database db = data::UniformRandom(5000, 32, 0.4, rng);
  sketch::ReleaseAnswersSketch algo;
  const auto p = Params();
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.Build(db, p, rng));
  }
}
BENCHMARK(BM_ReleaseAnswersBuild);

void BM_ReleaseAnswersQuery(benchmark::State& state) {
  util::Rng rng(4);
  const core::Database db = data::UniformRandom(5000, 32, 0.4, rng);
  sketch::ReleaseAnswersSketch algo;
  const auto p = Params();
  const auto summary = algo.Build(db, p, rng);
  const auto est = algo.LoadEstimator(summary, p, 32, 5000);
  const core::Itemset t(32, {3, 17});
  for (auto _ : state) {
    benchmark::DoNotOptimize(est->EstimateFrequency(t));
  }
}
BENCHMARK(BM_ReleaseAnswersQuery);

// ingest_live's per-row cost: d = 32, eps 0.05 -> s = 2,440 reservoir
// slots, one coin per slot per row.
void BM_ReservoirObserve(benchmark::State& state) {
  util::Rng rng(5);
  sketch::ReservoirBuilder builder(32, BenchmarkParams(0.05), rng);
  const util::BitVector row = rng.RandomBits(32);
  for (auto _ : state) {
    builder.Observe(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReservoirObserve);

}  // namespace

BENCHMARK_MAIN();

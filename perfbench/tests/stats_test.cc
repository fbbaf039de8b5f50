// Tests of the benchmark's own arithmetic (src/stats.h): the percentile
// rule and latency histogram, the quieter-half selection, span self time,
// and the Push -> SUBSCRIBE lag join.
//
//   cmake -S perfbench -B <dir> && cmake --build <dir>
//   ctest --test-dir <dir>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                 \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,   \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

using perfbench::Mark;
using perfbench::Span;

void PercentileRule() {
  // p99 needs 1000 samples for ten to lie beyond it; p90 needs 100.
  EXPECT(perfbench::MinSamplesFor(0.99) == 1000);
  EXPECT(perfbench::MinSamplesFor(0.90) == 100);
  EXPECT(perfbench::MinSamplesFor(0.50) == 20);
  EXPECT(perfbench::SamplesBeyond(1000, 0.99) == 10);
  EXPECT(!perfbench::SupportsPercentile(999, 0.99));
  EXPECT(perfbench::SupportsPercentile(1000, 0.99));
  EXPECT(!perfbench::SupportsPercentile(0, 0.5));

  // Nearest rank: 1..1000 -> p50 = 500, p99 = 990, p100 = 1000.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  EXPECT(perfbench::Percentile(v, 0.50) == 500);
  EXPECT(perfbench::Percentile(v, 0.99) == 990);
  EXPECT(perfbench::Percentile(v, 1.0) == 1000);
  EXPECT(perfbench::Percentile(v, 0.0) == 1);
  std::vector<double> empty;
  EXPECT(std::isnan(perfbench::Percentile(empty, 0.5)));

  // The histogram's quantiles stay within its 0.5% bucket width of the
  // exact nearest-rank sample quantiles, and merge like pooled samples.
  perfbench::LatencyHistogram h, first, second;
  std::vector<double> samples;
  for (int i = 1; i <= 3000; ++i) {
    const double us = 50.0 + 0.37 * i;
    samples.push_back(us);
    h.Add(us);
    (i % 2 == 0 ? first : second).Add(us);
  }
  first.Merge(second);
  EXPECT(h.count() == 3000 && first.count() == 3000);
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = perfbench::Percentile(samples, q);
    EXPECT(std::fabs(h.Quantile(q) / exact - 1.0) < 0.005);
    EXPECT(h.Quantile(q) == first.Quantile(q));
  }
  // Latency groups: windows of 600 requests each, w2 slow and left out,
  // w5 slow. Groups of >= 1000: {w0,w1}, {w3,w4}, {w5,w6}; the median of
  // the group p99s ignores the one slow group.
  std::vector<perfbench::LatencyHistogram> windows(7);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const double base = (w == 2 || w == 5) ? 5000.0 : 100.0;
    for (int i = 0; i < 600; ++i) windows[w].Add(base + i);
  }
  perfbench::LatencyGroups groups(1000);
  for (const std::size_t w : {0, 1, 3, 4, 5, 6}) groups.Add(windows[w]);
  groups.Finish();
  EXPECT(groups.samples() == 3600);
  EXPECT(groups.P99() > 690 && groups.P99() < 700);  // fast groups' ~694
  EXPECT(groups.P50() > 397 && groups.P50() < 402);
  // A trailing partial group joins the last full one: {w0,w1} + {w3}.
  perfbench::LatencyGroups joined(1000);
  for (const std::size_t w : {0, 1, 3}) joined.Add(windows[w]);
  joined.Finish();
  EXPECT(joined.samples() == 1800);
  EXPECT(joined.P50() > 397 && joined.P50() < 402);
  EXPECT(joined.P99() > 690 && joined.P99() < 700);

  perfbench::LatencyHistogram edges;
  EXPECT(std::isnan(edges.Quantile(0.5)));
  edges.Add(0.0);   // below the range: first bucket
  edges.Add(1e9);   // above the range: last bucket
  EXPECT(edges.Quantile(0.0) < 0.11 && edges.Quantile(1.0) > 9.9e6);

  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2.5);
}

void SelfTime() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: covered
  // 10..50 = 40) and a child [90,120) clipped to [90,100) = 10 -> self 50.
  // The first child has its own child [12,18) -> its self is 14.
  std::vector<Span> spans = {
      {0, 0, 100, -1, 7},  {1, 10, 30, 0, 7}, {1, 20, 50, 0, 7},
      {2, 90, 120, 0, 7},  {3, 12, 18, 1, 7},
  };
  const auto self = perfbench::SelfTimes(spans);
  EXPECT(self.size() == spans.size());
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 14);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);

  // A child wholly outside its parent covers nothing.
  std::vector<Span> outside = {{0, 0, 10, -1, 1}, {1, 20, 30, 0, 1}};
  EXPECT(perfbench::SelfTimes(outside)[0] == 10);
}

void LagJoin() {
  // Pushes of rows 2000/4000/6000; the subscriber saw 2000 and 6000
  // (4000 skipped), a duplicate 6000, and a rows_seen with no mark.
  const std::vector<Mark> pushes = {
      {2000, 1'000'000}, {4000, 2'000'000}, {6000, 3'000'000}};
  const std::vector<Mark> replies = {
      {2000, 3'500'000}, {6000, 4'000'000}, {6000, 9'000'000},
      {7000, 9'500'000}};
  const auto lags = perfbench::JoinSnapshotLag(pushes, replies);
  EXPECT(lags.size() == 2);
  EXPECT(lags.size() == 2 && lags[0] == 2.5 && lags[1] == 1.0);

  // A reply stamped before its push is impossible in one clock: skipped.
  EXPECT(perfbench::JoinSnapshotLag({{2000, 5}}, {{2000, 4}}).empty());
}

void QuietSelection() {
  // Set-ups: keeps the samples whose interference is at most the
  // median's, whatever their values; equal interference keeps them all.
  const std::vector<double> values = {10, 20, 30, 40, 50};
  const std::vector<double> steal = {0, 9, 1, 8, 1};
  const auto kept = perfbench::QuietHalf(values, steal);
  EXPECT((kept == std::vector<double>{10, 30, 50}));
  EXPECT(perfbench::QuietHalf(values, {2, 2, 2, 2, 2}) == values);
  EXPECT(perfbench::QuietHalf(values, {1, 2}) == values);  // mismatched

  // Least-stolen windows covering 1.0 s of 0.25 s windows: the four with
  // the least steal, the earlier first on ties; a quiet host keeps the
  // first four; too little time keeps everything.
  const std::vector<double> spans(6, 0.25);
  EXPECT((perfbench::LeastStolen({5, 0, 9, 1, 0, 1}, spans, 1.0) ==
          std::vector<bool>{false, true, false, true, true, true}));
  EXPECT((perfbench::LeastStolen({3, 0, 9, 1, 0, 1}, spans, 0.9) ==
          std::vector<bool>{false, true, false, true, true, true}));
  EXPECT((perfbench::LeastStolen({0, 0, 0, 0, 0, 0}, spans, 1.0) ==
          std::vector<bool>{true, true, true, true, false, false}));
  EXPECT((perfbench::LeastStolen({4, 2}, {0.25, 0.25}, 1.0) ==
          std::vector<bool>{true, true}));
}

}  // namespace

int main() {
  PercentileRule();
  SelfTime();
  LagJoin();
  QuietSelection();
  if (failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return failures == 0 ? 0 : 1;
}

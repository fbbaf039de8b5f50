// The benchmark's own arithmetic: percentiles under the ten-samples-beyond
// rule and latency histogram, the selections against CPU time stolen by
// the hypervisor, span self time, and the Push -> SUBSCRIBE lag join.
// Header-only and free of library dependencies so tests/stats_test.cc
// can check it in isolation.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it, so one outlier cannot set it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of the q-quantile among `n` samples,
/// ceil(q * n), with q * n computed so that 0.9 * 100 is exactly 90.
inline std::size_t NearestRank(std::size_t n, double q) {
  return static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
}

/// Samples of `n` that lie beyond the nearest-rank q-quantile.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  const std::size_t rank = NearestRank(n, q);
  return n > rank ? n - rank : 0;
}

/// Whether `n` samples support reporting the q-quantile.
inline bool SupportsPercentile(std::size_t n, double q) {
  return n > 0 && SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

/// Smallest sample count that supports the q-quantile.
inline std::size_t MinSamplesFor(double q) {
  std::size_t n = kMinSamplesBeyond;
  while (!SupportsPercentile(n, q)) ++n;
  return n;
}

/// Nearest-rank q-quantile (the smallest sample with at least q*n
/// samples at or below it). Reorders `v`; NaN when empty.
inline double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return std::nan("");
  const std::size_t rank =
      std::clamp<std::size_t>(NearestRank(v.size(), q), 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

/// Median of a copy (mean of the two middle samples for even counts).
inline double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// The samples whose interference is at most the median interference:
/// the quieter half or more, for set-ups on a host whose hypervisor
/// steals CPU time in bursts. The choice reads only the interference,
/// never the measured values, and when every sample saw the same
/// interference (a quiet host) all are kept. Mismatched or empty input
/// keeps every sample.
inline std::vector<double> QuietHalf(const std::vector<double>& values,
                                     const std::vector<double>& interference) {
  if (values.empty() || values.size() != interference.size()) return values;
  const double cut = Median(interference);
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (interference[i] <= cut) kept.push_back(values[i]);
  }
  return kept;
}

/// The least-stolen windows that together last `seconds`: windows taken
/// in ascending order of stolen CPU time (earlier first on ties) until
/// their spans add up to `seconds`. The choice reads only the stolen
/// time, never the measured values. A run on a quiet host lasts
/// `seconds` and keeps every window; on a host whose hypervisor steals
/// CPU time in bursts, the run goes on longer and the bursts drop out.
inline std::vector<bool> LeastStolen(const std::vector<double>& steal,
                                     const std::vector<double>& spans,
                                     double seconds) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  std::vector<bool> keep(steal.size(), false);
  double covered = 0.0;
  for (const std::size_t i : order) {
    if (covered >= seconds || i >= spans.size()) break;
    keep[i] = true;
    covered += spans[i];
  }
  return keep;
}

/// Latency histogram with log-spaced buckets 0.5% wide, from 0.1 us to
/// 10 s, so its memory is fixed however many requests it counts.
/// Quantiles follow the nearest-rank rule and interpolate geometrically
/// inside the bucket that holds the rank, so they are within 0.5% of the
/// exact sample quantile.
class LatencyHistogram {
 public:
  static constexpr double kMinUs = 0.1;
  static constexpr double kGrowth = 1.005;
  static constexpr std::size_t kBuckets = 3694;  // kMinUs * kGrowth^k >= 1e7

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(double us) {
    std::size_t i = 0;
    if (us > kMinUs) {
      i = std::min(kBuckets - 1, static_cast<std::size_t>(
                                     std::log(us / kMinUs) /
                                     std::log(kGrowth)));
    }
    ++counts_[i];
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  void Clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
  }

  /// Nearest-rank q-quantile in us; NaN when empty.
  double Quantile(double q) const {
    if (count_ == 0) return std::nan("");
    const std::uint64_t rank = std::clamp<std::uint64_t>(
        NearestRank(static_cast<std::size_t>(count_), q), 1, count_);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (below + counts_[i] >= rank) {
        const double within = (static_cast<double>(rank - below) - 0.5) /
                              static_cast<double>(counts_[i]);
        return kMinUs * std::pow(kGrowth, static_cast<double>(i) + within);
      }
      below += counts_[i];
    }
    return kMinUs * std::pow(kGrowth, static_cast<double>(kBuckets));
  }

 private:
  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
};

/// Latency quantiles that one burst of interference cannot set: windows
/// are added in order and grouped into runs of at least `group_min`
/// requests; each closed group keeps only its p50 and p99, so memory
/// stays fixed. After Finish (a trailing partial group joins the last
/// full one), P50/P99 are the medians over groups.
class LatencyGroups {
 public:
  explicit LatencyGroups(std::uint64_t group_min) : group_min_(group_min) {}

  void Add(const LatencyHistogram& window) {
    if (open_.count() >= group_min_) Close();
    open_.Merge(window);
    samples_ += window.count();
  }

  void Finish() {
    if (open_.count() == 0) return;
    if (open_.count() < group_min_ && !p50_.empty()) {
      last_.Merge(open_);
      p50_.pop_back();
      p99_.pop_back();
      open_ = last_;
    }
    Close();
  }

  double P50() const { return Median(p50_); }
  double P99() const { return Median(p99_); }
  std::uint64_t samples() const { return samples_; }

 private:
  void Close() {
    p50_.push_back(open_.Quantile(0.50));
    p99_.push_back(open_.Quantile(0.99));
    last_ = open_;
    open_.Clear();
  }

  std::uint64_t group_min_;
  std::uint64_t samples_ = 0;
  LatencyHistogram open_;
  LatencyHistogram last_;  // the last closed group, for Finish
  std::vector<double> p50_;
  std::vector<double> p99_;
};

/// One traced call: which layer, when, which span caused it, and which
/// request of the stream it served. Times are steady-clock ns.
struct Span {
  std::uint32_t name = 0;     ///< index into the recorder's name table
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;   ///< index of the causing span, -1 for roots
  std::uint64_t request = 0;  ///< request id shared by a request's spans
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are counted
/// once, and child time outside the parent's interval is ignored).
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(s.start, spans[c].start);
      const std::int64_t b = std::min(s.end, spans[c].end);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

/// A stream position and the time it was observed.
struct Mark {
  std::uint64_t rows = 0;
  std::int64_t t_ns = 0;
};

/// Joins producer marks (time the Push of row number `rows` returned)
/// with subscriber replies (time a SUBSCRIBE reply carrying rows_seen ==
/// `rows` arrived) into snapshot lags in ms. Replies whose rows_seen has
/// no producer mark, and duplicate replies for a row count already
/// joined, are skipped; a negative lag cannot happen in one clock and is
/// skipped too.
inline std::vector<double> JoinSnapshotLag(const std::vector<Mark>& pushes,
                                           const std::vector<Mark>& replies) {
  std::map<std::uint64_t, std::int64_t> pushed_at;
  for (const Mark& m : pushes) pushed_at.emplace(m.rows, m.t_ns);
  std::vector<double> lags;
  std::map<std::uint64_t, bool> seen;
  for (const Mark& r : replies) {
    const auto it = pushed_at.find(r.rows);
    if (it == pushed_at.end() || !seen.emplace(r.rows, true).second) continue;
    if (r.t_ns < it->second) continue;
    lags.push_back(static_cast<double>(r.t_ns - it->second) / 1e6);
  }
  return lags;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

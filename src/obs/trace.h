// Per-request trace context: stamps stage timings as one request
// crosses ServeConnection -> Router -> SketchPod -> Engine (PR 8).
//
// A RequestTrace is a stack-allocated span covering one request frame.
// It installs itself as the calling thread's current trace; any code
// below it on the same thread can stamp a stage without plumbing a
// context parameter through Router/SketchPod signatures -- StageTimer
// measures a scope and calls RequestTrace::Stamp, which is a no-op
// when no trace is active (direct Engine use, benches without
// instrumentation). On destruction the trace records each stamped
// stage into the registry's per-stage histograms
// (serve_stage_<stage>_ns) and the whole span into
// serve_request_ns{op=...}.
//
// The stages, in request order:
//
//   kDecode   frame body decode + validation   (ServeConnection)
//   kRoute    Route() span: placement, health  (Router; includes the
//             selection, validation            request's kernel)
//   kAcquire  sketch open/mmap/evict           (SketchPod::Acquire)
//   kKernel   the request's Engine batch call  (Router::Route)
//   kEncode   reply encode + write             (ServeConnection)
//
// Every routed request runs its own kernel on its own thread, so each
// one stamps kKernel once and serve_stage_kernel_ns counts requests.
//
// Threading: a trace belongs to the thread that created it. Stamps
// from other threads land on whatever trace *that* thread carries (or
// nowhere), never racing on this one, so the stage array needs no
// atomics.
#ifndef IFSKETCH_OBS_TRACE_H_
#define IFSKETCH_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace ifsketch::obs {

enum class Stage : std::uint8_t {
  kDecode = 0,
  kRoute = 1,
  kAcquire = 2,
  kKernel = 3,
  kEncode = 4,
};
inline constexpr std::size_t kStageCount = 5;

/// "decode", "route", ... -- stable names used in metric keys.
const char* StageName(Stage stage);

/// Monotonic nanosecond clock shared by all obs timing.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class RequestTrace {
 public:
  /// Starts the span and installs this trace as the thread's current
  /// one. `op` names the request kind for serve_request_ns{op=...};
  /// it must outlive the trace (string literals in practice).
  /// `registry` may be null to time stages without recording (the
  /// stamped values are still readable via stage_ns, which tests use).
  RequestTrace(MetricsRegistry* registry, const char* op);
  /// Records stamped stages + the total span, and restores the
  /// previously installed trace (traces nest like stack frames).
  ~RequestTrace();

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  /// The calling thread's innermost live trace, or null.
  static RequestTrace* Current();
  /// Adds `ns` to `stage` on the calling thread's current trace; no-op
  /// when none is installed.
  static void Stamp(Stage stage, std::uint64_t ns);

  std::uint64_t stage_ns(Stage stage) const {
    return stages_[static_cast<std::size_t>(stage)];
  }

 private:
  MetricsRegistry* registry_;
  const char* op_;
  std::uint64_t start_ns_;
  RequestTrace* previous_;
  std::array<std::uint64_t, kStageCount> stages_{};
};

/// RAII stopwatch: measures its own lifetime and stamps it onto the
/// calling thread's current trace. Free to construct when no trace is
/// active (one clock read per end).
class StageTimer {
 public:
  explicit StageTimer(Stage stage) : stage_(stage), start_ns_(NowNs()) {}
  ~StageTimer() { RequestTrace::Stamp(stage_, NowNs() - start_ns_); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Stage stage_;
  std::uint64_t start_ns_;
};

}  // namespace ifsketch::obs

#endif  // IFSKETCH_OBS_TRACE_H_

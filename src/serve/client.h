// SketchClient: the request/reply side of the wire protocol.
//
// Wraps any Transport (a TcpConnect socket or one end of a
// LoopbackTransport pair) and speaks one request at a time: encode,
// send, read exactly one reply frame, decode.
//
// Failure semantics -- every nullopt return is classified by
// last_failure(), and the classes behave differently:
//
//   kRequest   The server answered with a kError frame. The connection
//              is healthy and stays usable; the REQUEST was refused
//              (unknown sketch, unsupported query, bad argument --
//              last_status()/last_error() carry the verdict). Never
//              retried: resending the same request gets the same answer.
//   kTransport The connection died or desynced: send failed, the reply
//              never arrived (peer closed, read deadline expired), or
//              the reply was malformed/unexpected/undecodable. The
//              connection is poisoned -- with no way to know whether the
//              server executed the request, resuming mid-stream could
//              misattribute replies, so the transport is never reused
//              (the server enforces the same no-resync rule). A client
//              built over a TransportFactory instead RECONNECTS and
//              retries, under RetryPolicy's budget: bounded attempts,
//              jittered exponential backoff, optional per-attempt read
//              deadline and overall deadline. Retrying re-sends the
//              request on a fresh connection -- safe because every
//              protocol request is a read-only query (at-least-once
//              execution is indistinguishable from exactly-once).
//   kLocal     The request never left the process (it exceeds protocol
//              limits). Nothing was sent; the connection is untouched.
//              Never retried: it can only fail the same way.
//
// Not thread-safe: one client per connection per thread. Open several
// clients for concurrency -- the server runs their requests side by
// side, even on one sketch (see serve/router.h).
#ifndef IFSKETCH_SERVE_CLIENT_H_
#define IFSKETCH_SERVE_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/transport.h"

namespace ifsketch::serve {

/// Why the last call returned nullopt (kNone after a success). See the
/// header comment for the exact contract of each class.
enum class FailureKind {
  kNone,       ///< last call succeeded
  kRequest,    ///< server refused the request; connection still fine
  kTransport,  ///< connection lost/desynced; retryable via reconnect
  kLocal,      ///< request violates protocol limits; nothing was sent
};

/// Retry budget for transport-class failures. Only effective on clients
/// constructed with a TransportFactory -- without one there is no way to
/// replace a poisoned connection, so every call is single-attempt.
struct RetryPolicy {
  /// Total tries per call (first attempt included).
  int max_attempts = 3;
  /// Backoff before retry k is initial * multiplier^(k-1), capped at
  /// max_backoff, then jittered to [50%, 100%] of itself so clients that
  /// fail together do not retry in lockstep.
  std::chrono::milliseconds initial_backoff{10};
  std::chrono::milliseconds max_backoff{2000};
  double backoff_multiplier = 2.0;
  /// Per-attempt read deadline (0 = block forever). Needs a transport
  /// that can enforce timeouts (see Transport::SetReadTimeout); sockets
  /// and loopbacks both can. Subscribe callers beware: the deadline must
  /// exceed the subscribe timeout or the server's (legitimate) long poll
  /// reads as a dead peer.
  std::chrono::milliseconds attempt_timeout{0};
  /// Overall wall-clock budget per call, attempts + backoffs included
  /// (0 = unbounded). Also caps each attempt's read deadline.
  std::chrono::milliseconds deadline{0};
  /// Seed for the backoff jitter; fixed seed = reproducible schedule.
  std::uint64_t jitter_seed = 1;
};

/// Makes a fresh connection; nullptr when the endpoint is unreachable
/// (which consumes one attempt and is retried like any transport
/// failure, so a factory can rotate through replica endpoints).
using TransportFactory = std::function<std::unique_ptr<Transport>()>;

/// Blocking protocol client; single-connection, or self-reconnecting
/// with retry when given a factory.
class SketchClient {
 public:
  /// Single-connection client: transport failures poison it permanently
  /// (every later call fails fast) and nothing is ever retried.
  explicit SketchClient(std::unique_ptr<Transport> transport)
      : transport_(std::move(transport)), jitter_state_(policy_.jitter_seed) {}

  /// Reconnecting client: connects lazily via `factory` and retries
  /// transport-class failures on a fresh connection per `policy`.
  SketchClient(TransportFactory factory, RetryPolicy policy = RetryPolicy{})
      : factory_(std::move(factory)),
        policy_(policy),
        jitter_state_(policy.jitter_seed) {}

  /// Batched frequency estimates for `queries` (each a list of ascending
  /// attribute indices) against the named sketch. nullopt on any error;
  /// see last_failure() / last_error() / last_status().
  std::optional<std::vector<double>> EstimateMany(
      const std::string& sketch,
      const std::vector<std::vector<std::uint32_t>>& queries);

  /// Batched threshold bits; same shape as EstimateMany.
  std::optional<std::vector<bool>> AreFrequent(
      const std::string& sketch,
      const std::vector<std::vector<std::uint32_t>>& queries);

  /// EstimateMany, pipelined: splits `queries` into up to `frames`
  /// contiguous request frames, writes them all back-to-back in one
  /// vectored write, then reads the replies in order and concatenates
  /// the answers -- bit-identical to the single-frame call, but the
  /// server (reactor path) overlaps the chunks' execution. frames <= 1
  /// degenerates to EstimateMany. A kError on any chunk is a request
  /// failure (the remaining replies are still drained, so the
  /// connection stays usable); transport failures retry whole per the
  /// policy, like every other call.
  std::optional<std::vector<double>> EstimateManyPipelined(
      const std::string& sketch,
      const std::vector<std::vector<std::uint32_t>>& queries,
      std::size_t frames);

  /// The served sketch's public context (algorithm, params, shape).
  std::optional<SketchInfo> Info(const std::string& sketch);

  /// The snapshot currently served under `sketch` (epoch 0 = nothing
  /// published yet for a stream sketch).
  std::optional<SnapshotInfo> Refresh(const std::string& sketch);

  /// Blocks (server-side) until the sketch's epoch exceeds `min_epoch`
  /// or `timeout_ms` elapses, then returns the final state -- compare
  /// epoch with min_epoch to tell satisfied from timed out. timeout_ms
  /// must not exceed kMaxSubscribeTimeoutMs.
  std::optional<SnapshotInfo> Subscribe(const std::string& sketch,
                                        std::uint64_t min_epoch,
                                        std::uint32_t timeout_ms);

  /// The server's full metrics snapshot (the STATS opcode): every
  /// registry counter, gauge, and histogram by name. Reconstruct
  /// percentiles client-side with obs::HistogramSnapshot over the
  /// returned buckets -- the same quantile math the server uses.
  std::optional<StatsReply> Stats();

  /// Failure class of the last nullopt return; kNone after a success.
  FailureKind last_failure() const { return last_failure_; }

  /// Attempts the last call consumed (>= 2 means it retried).
  int last_attempts() const { return last_attempts_; }

  /// Human-readable reason for the last nullopt return.
  const std::string& last_error() const { return last_error_; }

  /// Server status of the last kError reply (kOk when the failure was
  /// not a server verdict: transport lost, undecodable reply, local).
  Status last_status() const { return last_status_; }

 private:
  /// Sends `body` under `opcode` and reads one reply, which must be
  /// `expected_reply` or kError; retries transport failures per policy
  /// when a factory is available. nullopt (with last_* set) else.
  std::optional<Frame> RoundTrip(Opcode opcode, const std::string& body,
                                 Opcode expected_reply);

  /// RoundTrip of an already-encoded request frame: the query calls
  /// encode theirs straight from the caller's queries (EncodeQueryFrame).
  std::optional<Frame> RoundTripFrame(const std::string& wire,
                                      Opcode expected_reply);

  /// Records a local refusal (a protocol limit; nothing was sent).
  void FailLocal(const char* message);

  /// True with a live transport_ (reconnecting via the factory if the
  /// old one is gone or poisoned).
  bool EnsureConnected();

  /// Installs the per-attempt read deadline: attempt_timeout capped by
  /// what remains of the overall deadline that started at `start`.
  void ApplyReadTimeout(std::chrono::steady_clock::time_point start);

  /// The jittered backoff to sleep before retry number `attempt` + 1.
  std::chrono::milliseconds NextBackoff(int attempt);

  /// Records a transport-class failure and poisons the connection.
  void Poison(const char* message);

  std::unique_ptr<Transport> transport_;
  TransportFactory factory_;  // null for single-connection clients
  RetryPolicy policy_;
  bool poisoned_ = false;
  std::uint64_t jitter_state_;
  FailureKind last_failure_ = FailureKind::kNone;
  int last_attempts_ = 0;
  std::string last_error_;
  Status last_status_ = Status::kOk;
};

}  // namespace ifsketch::serve

#endif  // IFSKETCH_SERVE_CLIENT_H_

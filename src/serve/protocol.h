// The ifsketch wire protocol: versioned, length-prefixed binary frames.
//
// The serving subsystem (serve/pod.h, serve/router.h, serve/server.h)
// speaks one frame format over any byte transport (serve/transport.h) --
// the same codec drives the TCP server and the in-process loopback pair
// the tests and benches use. Framing:
//
//   frame   := header || body
//   header  := magic   u32   "IFSP" (bytes 'I','F','S','P')
//              version u16   = 1
//              opcode  u8    (see Opcode)
//              status  u8    (0 on requests; Status on kError responses)
//              length  u32   body byte count, <= kMaxBodyBytes
//   body    := opcode-specific payload (layouts below)
//
// All integers are written with the same raw host-endian discipline as
// the IFSK sketch file format (sketch/sketch_file.h): little-endian on
// every platform this repo targets. Strings are u16 length + bytes;
// itemsets travel as u16 attribute count + ascending u32 attribute
// indices (the universe size d is server-side state, carried by the
// sketch itself and reported by kInfo).
//
// Body layouts:
//   kEstimate / kAreFrequent (requests):
//       name   string        target sketch (pod-registered name)
//       count  u32           number of queries, <= kMaxQueriesPerRequest
//       count x { attrs u16, attr u32 x attrs }
//   kEstimateReply:   count u32, answer f64 x count
//   kAreFrequentReply: count u32, bits packed LSB-first, (count+7)/8 bytes
//   kInfo (request):  name string
//   kInfoReply:       algorithm string, k u32, eps f64, delta f64,
//                     scope u8, answer u8, n u64, d u64, summary_bits u64
//   kRefresh (request):   name string
//   kSubscribe (request): name string, min_epoch u64, timeout_ms u32
//                         (timeout_ms <= kMaxSubscribeTimeoutMs)
//   kRefreshReply / kSubscribeReply: epoch u64, rows_seen u64
//       (a subscribe reply always reports the FINAL state -- on timeout
//       epoch <= min_epoch, which is how clients tell the two apart)
//   0x06 / 0x86:          retired (HEALTH, see the version note);
//                         rejected like any unknown opcode
//   kStats (request):     empty body
//   kStatsReply:          the server's metrics registry snapshot
//                         (src/obs/metrics.h), three sections in order:
//       counter_count u32 (<= kMaxMetricsPerReply), then per counter:
//           name string, value u64
//       gauge_count u32 (<= kMaxMetricsPerReply), then per gauge:
//           name string, value i64
//       histogram_count u32 (<= kMaxMetricsPerReply), then per
//       histogram: name string, count u64, sum u64, max u64,
//           bucket_count u32 (<= kMaxHistogramBuckets),
//           bucket u64 x bucket_count  (log-linear layout of
//           obs::BucketIndex, trimmed at the last nonzero bucket --
//           clients derive p50/p90/p99 with obs::HistogramSnapshot)
//   kError:           header.status = Status, body = message string
//
// Version note: kRefresh/kSubscribe (streaming ingest, src/ingest/) and
// kStats (observability) were added without a version bump
// -- the protocol version stays 1 because nothing existing changed
// shape; an older peer simply rejects the new opcodes as a malformed
// header and hangs up, which is the defined behavior for any unknown
// opcode. The HEALTH pair (0x06 request, 0x86 reply) reported the
// in-process replica health machine; it was retired with that
// machine and the router's replication, so a HEALTH frame now gets the
// unknown-opcode treatment above. Both byte values stay reserved and
// are never reused, so an old client cannot misread a new reply.
//
// Decoding follows the ReadSketch validate-everything discipline: every
// header field is checked (magic, version, known opcode, length cap)
// before any body byte is read, a reader consumes exactly header.length
// body bytes and never trusts a declared count without bounding it, and
// a body must be fully consumed -- trailing bytes are a malformed frame.
// Codec functions are pure buffer transforms with no transport
// dependency; serve/transport.h adds ReadFrame/WriteFrame over a
// Transport.
//
// Pipelining contract (PR 9, the event-loop server in serve/reactor.h):
// a client may write any number of request frames back-to-back without
// waiting for replies. The server answers every request with exactly one
// reply frame, in request order -- requests may execute concurrently
// server-side, but reply N is never written before reply N-1, so a
// client matches replies to requests by counting. Two per-connection
// bounds apply: the server stops reading a connection once its
// outstanding (unanswered) frames reach the server's outstanding cap
// (resuming as replies drain, so a client that also drains never
// deadlocks), and a connection whose client stops reading replies is
// hung up once the queued reply bytes exceed the server's outbound cap.
// The first malformed frame still kills the connection: framing is lost,
// so the server answers the requests already read, appends one kError
// frame, and closes -- bytes after the malformed frame are never
// interpreted. FrameDecoder below is the incremental form of this
// boundary: it accepts exactly the frames the blocking
// ReadFrame/DecodeFrameHeader path accepts, byte for byte.
#ifndef IFSKETCH_SERVE_PROTOCOL_H_
#define IFSKETCH_SERVE_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ifsketch::serve {

inline constexpr char kFrameMagic[4] = {'I', 'F', 'S', 'P'};
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Upper bound on a frame body; a declared length beyond this is
/// malformed (rejected before any allocation or body read).
inline constexpr std::uint32_t kMaxBodyBytes = 16u << 20;
/// Upper bound on queries fused into one request frame.
inline constexpr std::uint32_t kMaxQueriesPerRequest = 1u << 20;
/// Upper bound on a kSubscribe wait (10 minutes); a larger declared
/// timeout is a malformed frame, so one client cannot park a connection
/// thread forever.
inline constexpr std::uint32_t kMaxSubscribeTimeoutMs = 600000;
/// Upper bound on metrics per kStatsReply section; a larger declared
/// count is malformed.
inline constexpr std::uint32_t kMaxMetricsPerReply = 65536;
/// Upper bound on buckets per kStatsReply histogram row (covers
/// obs::kHistogramBuckets = 252 with headroom for layout growth).
inline constexpr std::uint32_t kMaxHistogramBuckets = 512;

/// Frame kinds. Requests have the high bit clear, replies set it; kError
/// answers any request whose dispatch fails.
enum class Opcode : std::uint8_t {
  kEstimate = 0x01,
  kAreFrequent = 0x02,
  kInfo = 0x03,
  kRefresh = 0x04,
  kSubscribe = 0x05,
  // 0x06 reserved: retired HEALTH request.
  kStats = 0x07,
  kEstimateReply = 0x81,
  kAreFrequentReply = 0x82,
  kInfoReply = 0x83,
  kRefreshReply = 0x84,
  kSubscribeReply = 0x85,
  // 0x86 reserved: retired HEALTH reply.
  kStatsReply = 0x87,
  kError = 0xff,
};

/// Why a request failed; carried in the kError frame's header.status.
enum class Status : std::uint8_t {
  kOk = 0,
  kUnknownSketch = 1,   ///< name not registered on any pod
  kBadRequest = 2,      ///< body undecodable or limits exceeded
  kUnsupportedQuery = 3,///< wrong answer flavor / query size / attr range
  kInternal = 4,        ///< sketch registered but unloadable, etc.
};

/// Validated frame header (magic/version already checked and dropped).
struct FrameHeader {
  Opcode opcode = Opcode::kError;
  std::uint8_t status = 0;
  std::uint32_t body_length = 0;
};

/// A decoded frame: header plus exactly header.body_length body bytes.
struct Frame {
  FrameHeader header;
  std::string body;
};

/// One batched query request (kEstimate or kAreFrequent): the target
/// sketch name and each query's ascending attribute indices.
struct QueryRequest {
  std::string sketch;
  std::vector<std::vector<std::uint32_t>> queries;
};

/// A kEstimate / kAreFrequent body that passed ViewQueryRequest,
/// viewed in place: `sketch` and `records` borrow the body bytes, which
/// must outlive the view. Walk the queries with ForEachQuery.
struct QueryRequestView {
  std::string_view sketch;
  std::uint32_t count = 0;   ///< number of query records
  std::string_view records;  ///< count x { attrs u16, attr u32 x attrs }
};

/// One query record of a validated view: `size` u32 attribute indices
/// starting at `attrs`, straight from the (unaligned) wire bytes.
struct QueryRecord {
  const char* attrs = nullptr;
  std::uint16_t size = 0;

  std::uint32_t attr(std::size_t i) const {
    std::uint32_t value;
    std::memcpy(&value, attrs + i * sizeof(value), sizeof(value));
    return value;
  }
};

/// Calls fn(const QueryRecord&) for each query of a validated view, in
/// order, until fn returns false. Returns false iff fn stopped it.
template <typename Fn>
bool ForEachQuery(const QueryRequestView& view, Fn&& fn) {
  const char* p = view.records.data();
  for (std::uint32_t q = 0; q < view.count; ++q) {
    QueryRecord record;
    std::memcpy(&record.size, p, sizeof(record.size));
    record.attrs = p + sizeof(record.size);
    p = record.attrs + std::size_t{record.size} * sizeof(std::uint32_t);
    if (!fn(record)) return false;
  }
  return true;
}

/// kRefreshReply / kSubscribeReply payload: which snapshot the sketch is
/// serving (mirrors serve::SnapshotState; epoch 0 = nothing published).
struct SnapshotInfo {
  std::uint64_t epoch = 0;
  std::uint64_t rows_seen = 0;
};

/// kSubscribe payload: block until the sketch's epoch exceeds min_epoch
/// or timeout_ms elapses (the reply carries the final state either way).
struct SubscribeRequest {
  std::string sketch;
  std::uint64_t min_epoch = 0;
  std::uint32_t timeout_ms = 0;
};

/// One kStatsReply counter or gauge row (value type differs).
struct StatsCounter {
  std::string name;
  std::uint64_t value = 0;
};
struct StatsGauge {
  std::string name;
  std::int64_t value = 0;
};

/// One kStatsReply histogram row: the wire form of an
/// obs::HistogramSnapshot (count/sum/max plus the trimmed bucket
/// vector). Decoding validates sizes only, not cross-field arithmetic
/// -- count and the bucket sum are reported independently by a racing
/// snapshot and may legitimately differ by in-flight records.
struct StatsHistogram {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;
};

/// kStatsReply payload: the full registry snapshot.
struct StatsReply {
  std::vector<StatsCounter> counters;
  std::vector<StatsGauge> gauges;
  std::vector<StatsHistogram> histograms;
};

/// kInfoReply payload: the served sketch's public context.
struct SketchInfo {
  std::string algorithm;
  std::uint32_t k = 0;
  double eps = 0.0;
  double delta = 0.0;
  std::uint8_t scope = 0;   // 0 = for-all, 1 = for-each
  std::uint8_t answer = 0;  // 0 = indicator, 1 = estimator
  std::uint64_t n = 0;
  std::uint64_t d = 0;
  std::uint64_t summary_bits = 0;
};

// ------------------------------------------------------------- encoding

/// Appends a complete frame (header + body) to `out`. Returns false when
/// the body exceeds kMaxBodyBytes (nothing is appended).
bool EncodeFrame(Opcode opcode, std::uint8_t status, std::string_view body,
                 std::string* out);

/// Writes just the 12-byte header for a body of `body_length` bytes into
/// `out[0..kFrameHeaderBytes)`. The scatter/gather write path (reactor,
/// pipelined client) encodes headers and bodies into separate buffers
/// and hands both to writev, so reply payloads are never copied into a
/// staging buffer. Returns false when body_length exceeds kMaxBodyBytes
/// (nothing is written).
bool EncodeFrameHeader(Opcode opcode, std::uint8_t status,
                       std::uint32_t body_length, char* out);

/// Body encoders. EncodeQueryRequest returns false when the request
/// exceeds protocol limits (name > 64 KiB, too many queries, a query
/// with > 65535 attributes); a refusal leaves `body` untouched. The
/// body is sized once and each query's attributes are copied as one
/// run.
bool EncodeQueryRequest(const QueryRequest& request, std::string* body);
/// Appends a whole kEstimate / kAreFrequent frame (header + the
/// EncodeQueryRequest body) to `out` in one pass, straight from the
/// caller's queries -- the form a client sends. False, with `out`
/// untouched, when a limit above or kMaxBodyBytes is exceeded.
bool EncodeQueryFrame(Opcode opcode, std::string_view sketch,
                      std::span<const std::vector<std::uint32_t>> queries,
                      std::string* out);
void EncodeEstimateReply(const std::vector<double>& answers,
                         std::string* body);
void EncodeAreFrequentReply(const std::vector<bool>& answers,
                            std::string* body);
bool EncodeInfoRequest(std::string_view sketch, std::string* body);
void EncodeInfoReply(const SketchInfo& info, std::string* body);
bool EncodeRefreshRequest(std::string_view sketch, std::string* body);
/// False when the name is oversized or the timeout exceeds
/// kMaxSubscribeTimeoutMs.
bool EncodeSubscribeRequest(const SubscribeRequest& request,
                            std::string* body);
/// Shared payload of kRefreshReply and kSubscribeReply.
void EncodeSnapshotReply(const SnapshotInfo& info, std::string* body);
/// False when a section exceeds kMaxMetricsPerReply, a name exceeds
/// 64 KiB, or a histogram carries more than kMaxHistogramBuckets
/// buckets.
bool EncodeStatsReply(const StatsReply& reply, std::string* body);
void EncodeError(Status status, std::string_view message, std::string* out);
/// Body-only form of EncodeError for callers that frame separately (the
/// reactor's reply slots). Oversized messages are truncated, not failed.
void EncodeErrorBody(std::string_view message, std::string* body);

// ------------------------------------------------------------- decoding

/// Parses and validates a 12-byte header buffer: magic, version, known
/// opcode, body length cap. nullopt on anything malformed.
std::optional<FrameHeader> DecodeFrameHeader(const char* data,
                                             std::size_t size);

/// Body decoders; each consumes the entire body and returns nullopt on
/// truncation, limit violations, or trailing bytes.
///
/// ViewQueryRequest is the one acceptance rule for query requests: it
/// validates the body in place, allocating nothing, and the server
/// builds its itemsets straight from the view. DecodeQueryRequest is
/// the same check followed by a copy into an owning QueryRequest.
std::optional<QueryRequestView> ViewQueryRequest(std::string_view body);
std::optional<QueryRequest> DecodeQueryRequest(std::string_view body);
std::optional<std::vector<double>> DecodeEstimateReply(std::string_view body);
std::optional<std::vector<bool>> DecodeAreFrequentReply(
    std::string_view body);
std::optional<std::string> DecodeInfoRequest(std::string_view body);
std::optional<SketchInfo> DecodeInfoReply(std::string_view body);
std::optional<std::string> DecodeRefreshRequest(std::string_view body);
std::optional<SubscribeRequest> DecodeSubscribeRequest(std::string_view body);
std::optional<SnapshotInfo> DecodeSnapshotReply(std::string_view body);
std::optional<StatsReply> DecodeStatsReply(std::string_view body);
std::optional<std::string> DecodeErrorMessage(std::string_view body);

// -------------------------------------------------- incremental decode

/// Incremental frame decoder for non-blocking reads: feed whatever bytes
/// the socket produced, pull out complete frames. Accept/reject parity
/// with the blocking path is the invariant the fuzz test enforces -- a
/// byte stream chopped at any boundaries yields exactly the frames (and
/// exactly the malformed verdict) that ReadFrame would produce reading
/// the same stream whole. Header validation happens the moment byte 12
/// arrives, before any body allocation, so a hostile length field is
/// rejected without reserving memory for it.
///
/// Usage: call Consume with unread input; it eats bytes until a frame
/// completes (kFrame -- take() the result, call again with the rest),
/// input runs out (kNeedMore), or the header fails validation
/// (kMalformed -- terminal; framing is lost and the connection must
/// close; further Consume calls eat nothing and return kMalformed).
class FrameDecoder {
 public:
  enum class Step {
    kNeedMore,   ///< all input consumed, no complete frame yet
    kFrame,      ///< one frame completed; take() it, re-Consume the rest
    kMalformed,  ///< header invalid (bad magic/version/opcode/length)
  };

  /// Consumes up to `size` bytes from `data`; `*consumed` is always set
  /// to the number of bytes eaten (on kFrame, bytes beyond the completed
  /// frame are left for the next call).
  Step Consume(const char* data, std::size_t size, std::size_t* consumed);

  /// The frame completed by the last kFrame step. Valid until the next
  /// Consume call.
  Frame take() { return std::move(frame_); }

  /// True when the stream ends inside a frame -- EOF here is the
  /// mid-frame hangup ReadFrame reports as kMalformed, while EOF at a
  /// frame boundary is a clean close.
  bool mid_frame() const {
    return state_ == State::kBody || (state_ == State::kHeader && have_ > 0);
  }

 private:
  enum class State { kHeader, kBody, kMalformed };

  State state_ = State::kHeader;
  std::size_t have_ = 0;  // bytes of header_ or frame_.body filled so far
  char header_[kFrameHeaderBytes];
  Frame frame_;
};

}  // namespace ifsketch::serve

#endif  // IFSKETCH_SERVE_PROTOCOL_H_

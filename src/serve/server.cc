#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/trace.h"

namespace ifsketch::serve {
namespace {

Status ToProtocolStatus(RouteStatus status) {
  switch (status) {
    case RouteStatus::kOk:
      return Status::kOk;
    case RouteStatus::kUnknownSketch:
      return Status::kUnknownSketch;
    case RouteStatus::kLoadFailed:
      return Status::kInternal;
    case RouteStatus::kUnsupportedQuery:
      return Status::kUnsupportedQuery;
  }
  return Status::kInternal;
}

ReplyFrame ErrorReply(Status status, std::string_view message) {
  ReplyFrame reply;
  reply.opcode = Opcode::kError;
  reply.status = static_cast<std::uint8_t>(status);
  EncodeErrorBody(message, &reply.body);
  return reply;
}

bool SendError(Transport& transport, Status status,
               std::string_view message) {
  std::string wire;
  EncodeError(status, message, &wire);
  return transport.WriteAll(wire.data(), wire.size());
}

/// Builds the Itemsets of a validated query request over the target
/// sketch's universe, straight from the wire bytes, handing back the
/// acquired engine so routing can reuse it (one pod acquire per
/// request). False (with `*error` filled) when the name is unknown, the
/// file will not load, or a query has an out-of-range attribute or a
/// size the sketch cannot answer -- the first failing query decides.
bool PrepareQueries(Router& router, const std::string& sketch,
                    const QueryRequestView& request,
                    std::vector<core::Itemset>* ts,
                    std::shared_ptr<const Engine>* engine_out,
                    ReplyFrame* error) {
  auto engine = router.Acquire(sketch);
  if (engine == nullptr) {
    if (router.Knows(sketch)) {
      *error = ErrorReply(Status::kInternal,
                          "sketch \"" + sketch + "\" failed to load");
    } else {
      *error = ErrorReply(Status::kUnknownSketch,
                          "unknown sketch \"" + sketch + "\"");
    }
    return false;
  }
  const std::size_t d = engine->d();
  ts->reserve(request.count);
  const bool ok = ForEachQuery(request, [&](const QueryRecord& record) {
    core::Itemset& t = ts->emplace_back(d);
    for (std::size_t i = 0; i < record.size; ++i) {
      const std::uint32_t attr = record.attr(i);
      if (attr >= d) {
        *error = ErrorReply(Status::kUnsupportedQuery,
                            "attribute out of range for sketch \"" +
                                sketch + "\"");
        return false;
      }
      t.Add(attr);
    }
    if (!engine->supports_query_size(t.size())) {
      *error = ErrorReply(Status::kUnsupportedQuery,
                          "query size unsupported by sketch \"" + sketch +
                              "\"");
      return false;
    }
    return true;
  });
  if (!ok) return false;
  *engine_out = std::move(engine);
  return true;
}

/// Decode with the kDecode stage stamped on the current trace.
template <typename DecodeFn>
auto TimedDecode(DecodeFn&& decode, std::string_view body) {
  obs::StageTimer timer(obs::Stage::kDecode);
  return decode(body);
}

/// Encode with the kEncode stage stamped on the current trace.
template <typename EncodeFn>
ReplyFrame TimedReply(Opcode opcode, EncodeFn&& encode) {
  obs::StageTimer timer(obs::Stage::kEncode);
  ReplyFrame reply;
  reply.opcode = opcode;
  encode(&reply.body);
  return reply;
}

ReplyFrame HandleEstimate(Router& router, std::string_view body) {
  const auto request = TimedDecode(ViewQueryRequest, body);
  if (!request.has_value()) {
    return ErrorReply(Status::kBadRequest, "undecodable estimate request");
  }
  const std::string sketch(request->sketch);
  std::vector<core::Itemset> ts;
  std::shared_ptr<const Engine> engine;
  ReplyFrame error;
  if (!PrepareQueries(router, sketch, *request, &ts, &engine, &error)) {
    return error;
  }
  std::vector<double> answers;
  RouteStatus status;
  {
    // The route span covers validation and the request's own kernel
    // (which also stamps kKernel).
    obs::StageTimer route_timer(obs::Stage::kRoute);
    status = router.EstimateMany(sketch, std::move(engine), ts, &answers);
  }
  if (status != RouteStatus::kOk) {
    return ErrorReply(ToProtocolStatus(status),
                      "estimate failed for sketch \"" + sketch +
                          "\" (indicator-flavored sketch?)");
  }
  return TimedReply(Opcode::kEstimateReply, [&answers](std::string* reply) {
    EncodeEstimateReply(answers, reply);
  });
}

ReplyFrame HandleAreFrequent(Router& router, std::string_view body) {
  const auto request = TimedDecode(ViewQueryRequest, body);
  if (!request.has_value()) {
    return ErrorReply(Status::kBadRequest,
                      "undecodable are-frequent request");
  }
  const std::string sketch(request->sketch);
  std::vector<core::Itemset> ts;
  std::shared_ptr<const Engine> engine;
  ReplyFrame error;
  if (!PrepareQueries(router, sketch, *request, &ts, &engine, &error)) {
    return error;
  }
  std::vector<bool> answers;
  RouteStatus status;
  {
    obs::StageTimer route_timer(obs::Stage::kRoute);
    status = router.AreFrequent(sketch, std::move(engine), ts, &answers);
  }
  if (status != RouteStatus::kOk) {
    return ErrorReply(ToProtocolStatus(status),
                      "are-frequent failed for sketch \"" + sketch + "\"");
  }
  return TimedReply(Opcode::kAreFrequentReply,
                    [&answers](std::string* reply) {
                      EncodeAreFrequentReply(answers, reply);
                    });
}

ReplyFrame HandleInfo(Router& router, std::string_view body) {
  const auto name = TimedDecode(DecodeInfoRequest, body);
  if (!name.has_value()) {
    return ErrorReply(Status::kBadRequest, "undecodable info request");
  }
  const auto engine = router.Acquire(*name);
  if (engine == nullptr) {
    if (router.Knows(*name)) {
      return ErrorReply(Status::kInternal,
                        "sketch \"" + *name + "\" failed to load");
    }
    return ErrorReply(Status::kUnknownSketch,
                      "unknown sketch \"" + *name + "\"");
  }
  SketchInfo info;
  info.algorithm = engine->algorithm();
  info.k = static_cast<std::uint32_t>(engine->params().k);
  info.eps = engine->params().eps;
  info.delta = engine->params().delta;
  info.scope = engine->params().scope == core::Scope::kForAll ? 0 : 1;
  info.answer =
      engine->params().answer == core::Answer::kIndicator ? 0 : 1;
  info.n = engine->n();
  info.d = engine->d();
  info.summary_bits = engine->summary_bits();
  return TimedReply(Opcode::kInfoReply, [&info](std::string* reply) {
    EncodeInfoReply(info, reply);
  });
}

ReplyFrame HandleRefresh(Router& router, std::string_view body) {
  const auto name = TimedDecode(DecodeRefreshRequest, body);
  if (!name.has_value()) {
    return ErrorReply(Status::kBadRequest, "undecodable refresh request");
  }
  const auto state = router.SnapshotOf(*name);
  if (!state.has_value()) {
    return ErrorReply(Status::kUnknownSketch,
                      "unknown sketch \"" + *name + "\"");
  }
  return TimedReply(Opcode::kRefreshReply, [&state](std::string* reply) {
    EncodeSnapshotReply(SnapshotInfo{state->epoch, state->rows_seen}, reply);
  });
}

ReplyFrame HandleSubscribe(Router& router, std::string_view body) {
  const auto request = TimedDecode(DecodeSubscribeRequest, body);
  if (!request.has_value()) {
    return ErrorReply(Status::kBadRequest, "undecodable subscribe request");
  }
  SnapshotState state;
  // The wait blocks only the thread carrying this request (a reactor
  // dispatch worker, or ServeConnection's caller on the loopback
  // harness); publishes arrive from the ingest thread and wake it
  // through the pod's condition variable.
  if (!router.WaitForEpoch(request->sketch, request->min_epoch,
                           std::chrono::milliseconds(request->timeout_ms),
                           &state)) {
    return ErrorReply(Status::kUnknownSketch,
                      "unknown sketch \"" + request->sketch + "\"");
  }
  // On timeout the reply still carries the final state; the client tells
  // the cases apart by comparing epoch with its min_epoch.
  return TimedReply(Opcode::kSubscribeReply, [&state](std::string* reply) {
    EncodeSnapshotReply(SnapshotInfo{state.epoch, state.rows_seen}, reply);
  });
}

ReplyFrame HandleStats(Router& router, std::string_view body) {
  if (!body.empty()) {
    return ErrorReply(Status::kBadRequest, "stats request takes no body");
  }
  const obs::MetricsSnapshot snap = router.registry().Snapshot();
  StatsReply stats;
  stats.counters.reserve(snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    stats.counters.push_back(StatsCounter{name, value});
  }
  stats.gauges.reserve(snap.gauges.size());
  for (const auto& [name, value] : snap.gauges) {
    stats.gauges.push_back(StatsGauge{name, value});
  }
  stats.histograms.reserve(snap.histograms.size());
  for (const auto& [name, h] : snap.histograms) {
    stats.histograms.push_back(
        StatsHistogram{name, h.count, h.sum, h.max, h.buckets});
  }
  ReplyFrame reply;
  reply.opcode = Opcode::kStatsReply;
  if (!EncodeStatsReply(stats, &reply.body)) {
    return ErrorReply(Status::kInternal,
                      "stats reply exceeds protocol limits");
  }
  return reply;
}

constexpr const char* kOpNames[] = {"estimate", "are_frequent", "info",
                                    "refresh",  "subscribe",    "stats"};
constexpr std::size_t kOpCount = sizeof(kOpNames) / sizeof(kOpNames[0]);

/// Request-opcode index into kOpNames; kOpCount for non-request opcodes.
std::size_t OpIndex(Opcode opcode) {
  switch (opcode) {
    case Opcode::kEstimate:
      return 0;
    case Opcode::kAreFrequent:
      return 1;
    case Opcode::kInfo:
      return 2;
    case Opcode::kRefresh:
      return 3;
    case Opcode::kSubscribe:
      return 4;
    case Opcode::kStats:
      return 5;
    default:
      return kOpCount;
  }
}

/// serve_requests_total{op=} counters, cached thread-local per registry
/// generation (the RequestTrace pattern): dispatch threads resolve the
/// names once and then only touch lock-free counters, so the per-frame
/// path never takes the registry mutex.
obs::Counter* RequestCounter(obs::MetricsRegistry& registry,
                             std::size_t op) {
  struct Cache {
    const obs::MetricsRegistry* registry = nullptr;
    std::uint64_t generation = 0;
    obs::Counter* counters[kOpCount] = {};
  };
  thread_local Cache cache;
  if (cache.registry != &registry ||
      cache.generation != registry.generation()) {
    for (std::size_t i = 0; i < kOpCount; ++i) {
      cache.counters[i] = registry.GetCounter(
          obs::LabeledName("serve_requests_total", "op", kOpNames[i]));
    }
    cache.registry = &registry;
    cache.generation = registry.generation();
  }
  return cache.counters[op];
}

}  // namespace

ReplyFrame DispatchRequest(Router& router, Opcode opcode,
                           std::string_view body) {
  const std::size_t op = OpIndex(opcode);
  if (op == kOpCount) {
    // Reply opcodes are valid frames but not valid *requests*; the frame
    // was fully consumed, so the connection survives.
    return ErrorReply(Status::kBadRequest, "frame opcode is not a request");
  }
  // One request = one trace: count the opcode, then let the handler
  // stamp decode/route/acquire/kernel/encode onto the installed trace;
  // the trace destructor records the stages and the total span.
  obs::MetricsRegistry& registry = router.registry();
  RequestCounter(registry, op)->Add();
  obs::RequestTrace trace(&registry, kOpNames[op]);
  switch (opcode) {
    case Opcode::kEstimate:
      return HandleEstimate(router, body);
    case Opcode::kAreFrequent:
      return HandleAreFrequent(router, body);
    case Opcode::kInfo:
      return HandleInfo(router, body);
    case Opcode::kRefresh:
      return HandleRefresh(router, body);
    case Opcode::kSubscribe:
      return HandleSubscribe(router, body);
    case Opcode::kStats:
      return HandleStats(router, body);
    default:
      return ErrorReply(Status::kBadRequest, "frame opcode is not a request");
  }
}

void ServeConnection(Router& router, Transport& transport) {
  for (;;) {
    Frame frame;
    switch (ReadFrame(transport, &frame)) {
      case ReadResult::kEof:
        return;
      case ReadResult::kMalformed:
        // Framing is gone (bad header or short body): report once and
        // hang up -- there is no boundary to resynchronize on.
        SendError(transport, Status::kBadRequest, "malformed frame");
        transport.CloseWrite();
        return;
      case ReadResult::kFrame:
        break;
    }
    const ReplyFrame reply =
        DispatchRequest(router, frame.header.opcode, frame.body);
    if (!WriteFrame(transport, reply.opcode, reply.status, reply.body)) {
      return;  // peer went away mid-reply
    }
  }
}

FdTransport::~FdTransport() {
  if (fd_ >= 0) ::close(fd_);
}

bool FdTransport::WriteAll(const void* data, std::size_t size) {
  const char* bytes = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool FdTransport::WritevAll(const ConstBuffer* buffers, std::size_t count) {
  // writev caps the vector at IOV_MAX entries; walk the spans with a
  // rolling (index, offset) cursor so partial writes and long batches
  // both resume exactly where the kernel stopped.
  std::size_t index = 0;
  std::size_t offset = 0;
  while (index < count) {
    iovec iov[64];
    int iov_count = 0;
    for (std::size_t i = index; i < count && iov_count < 64; ++i) {
      const std::size_t skip = i == index ? offset : 0;
      if (buffers[i].size <= skip) continue;
      iov[iov_count].iov_base = const_cast<char*>(
          static_cast<const char*>(buffers[i].data) + skip);
      iov[iov_count].iov_len = buffers[i].size - skip;
      ++iov_count;
    }
    if (iov_count == 0) return true;  // only empty spans left
    // sendmsg, not writev: MSG_NOSIGNAL turns a dead peer into a plain
    // EPIPE error instead of a process-killing SIGPIPE, matching the
    // WriteAll path above.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iov_count);
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    std::size_t advanced = static_cast<std::size_t>(n);
    while (index < count && advanced >= buffers[index].size - offset) {
      advanced -= buffers[index].size - offset;
      offset = 0;
      ++index;
    }
    offset += advanced;
  }
  return true;
}

bool FdTransport::ReadAll(void* data, std::size_t size) {
  char* bytes = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd_, bytes + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN/EWOULDBLOCK here means SO_RCVTIMEO expired: the deadline
      // contract says a stalled read fails like a dead peer.
      return false;
    }
    if (n == 0) return false;  // EOF
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void FdTransport::CloseWrite() { ::shutdown(fd_, SHUT_WR); }

bool FdTransport::SetReadTimeout(std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

std::unique_ptr<Transport> TcpConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<FdTransport>(fd);
}

}  // namespace ifsketch::serve

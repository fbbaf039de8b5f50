#include "serve/client.h"

#include <algorithm>
#include <span>
#include <thread>

#include "obs/metrics.h"

namespace ifsketch::serve {
namespace {

/// splitmix64, for backoff jitter: seedable so tests replay the exact
/// retry schedule.
std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

bool SketchClient::EnsureConnected() {
  if (transport_ != nullptr && !poisoned_) return true;
  if (!factory_) return false;  // single-connection client: stay poisoned
  transport_ = factory_();
  poisoned_ = false;
  return transport_ != nullptr;
}

void SketchClient::ApplyReadTimeout(
    std::chrono::steady_clock::time_point start) {
  auto timeout = policy_.attempt_timeout;
  if (policy_.deadline.count() > 0) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            policy_.deadline -
            (std::chrono::steady_clock::now() - start));
    const auto left = std::max(remaining, std::chrono::milliseconds(1));
    timeout = timeout.count() > 0 ? std::min(timeout, left) : left;
  }
  if (timeout.count() > 0) transport_->SetReadTimeout(timeout);
}

std::chrono::milliseconds SketchClient::NextBackoff(int attempt) {
  double base = static_cast<double>(policy_.initial_backoff.count());
  for (int i = 1; i < attempt; ++i) base *= policy_.backoff_multiplier;
  base = std::min(base, static_cast<double>(policy_.max_backoff.count()));
  // Jitter to [50%, 100%]: failed-together clients spread back out.
  const double u = (SplitMix64(&jitter_state_) >> 11) * 0x1.0p-53;
  return std::chrono::milliseconds(
      static_cast<std::int64_t>(base * (0.5 + 0.5 * u)));
}

void SketchClient::Poison(const char* message) {
  poisoned_ = true;
  last_error_ = message;
  last_failure_ = FailureKind::kTransport;
}

void SketchClient::FailLocal(const char* message) {
  // Nothing was sent: the connection is still healthy.
  last_error_ = message;
  last_status_ = Status::kOk;  // not a server verdict
  last_failure_ = FailureKind::kLocal;
  last_attempts_ = 0;
}

std::optional<Frame> SketchClient::RoundTrip(Opcode opcode,
                                             const std::string& body,
                                             Opcode expected_reply) {
  std::string wire;
  if (!EncodeFrame(opcode, 0, body, &wire)) {
    FailLocal("request exceeds the frame size limit");
    return std::nullopt;
  }
  return RoundTripFrame(wire, expected_reply);
}

std::optional<Frame> SketchClient::RoundTripFrame(const std::string& wire,
                                                  Opcode expected_reply) {
  last_error_.clear();
  last_status_ = Status::kOk;
  last_failure_ = FailureKind::kNone;
  last_attempts_ = 0;
  const auto start = std::chrono::steady_clock::now();
  const int max_attempts = factory_ ? std::max(1, policy_.max_attempts) : 1;
  for (int attempt = 1;; ++attempt) {
    last_attempts_ = attempt;
    if (!EnsureConnected()) {
      last_error_ =
          factory_ ? "connect failed" : "connection is closed";
      last_failure_ = FailureKind::kTransport;
    } else {
      ApplyReadTimeout(start);
      if (!transport_->WriteAll(wire.data(), wire.size())) {
        Poison("send failed (peer closed the connection)");
      } else {
        Frame reply;
        if (ReadFrame(*transport_, &reply) != ReadResult::kFrame) {
          Poison(
              "no reply (peer closed, deadline expired, or malformed "
              "frame)");
        } else if (reply.header.opcode == Opcode::kError) {
          // A served refusal: the connection stays usable and a retry
          // would only be refused again.
          last_status_ = static_cast<Status>(reply.header.status);
          const auto message = DecodeErrorMessage(reply.body);
          last_error_ = message.has_value() ? *message : "server error";
          last_failure_ = FailureKind::kRequest;
          return std::nullopt;
        } else if (reply.header.opcode != expected_reply) {
          Poison("unexpected reply opcode");
        } else {
          last_failure_ = FailureKind::kNone;
          return reply;
        }
      }
    }
    // Transport-class failure. Retry on a fresh connection while the
    // attempt budget and the overall deadline both allow it.
    if (attempt >= max_attempts) return std::nullopt;
    // Cold-path registry lookup is fine here: retries are backoff-paced.
    obs::MetricsRegistry::Default()
        .GetCounter("client_retries_total")
        ->Add();
    const auto backoff = NextBackoff(attempt);
    if (policy_.deadline.count() > 0 &&
        std::chrono::steady_clock::now() + backoff - start >=
            policy_.deadline) {
      return std::nullopt;
    }
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
  }
}

std::optional<std::vector<double>> SketchClient::EstimateMany(
    const std::string& sketch,
    const std::vector<std::vector<std::uint32_t>>& queries) {
  std::string wire;
  if (!EncodeQueryFrame(Opcode::kEstimate, sketch, queries, &wire)) {
    FailLocal("request exceeds protocol limits");
    return std::nullopt;
  }
  const auto reply = RoundTripFrame(wire, Opcode::kEstimateReply);
  if (!reply.has_value()) return std::nullopt;
  auto answers = DecodeEstimateReply(reply->body);
  if (!answers.has_value() || answers->size() != queries.size()) {
    Poison("undecodable estimate reply");
    return std::nullopt;
  }
  return answers;
}

std::optional<std::vector<double>> SketchClient::EstimateManyPipelined(
    const std::string& sketch,
    const std::vector<std::vector<std::uint32_t>>& queries,
    std::size_t frames) {
  if (frames <= 1 || queries.size() <= 1) {
    return EstimateMany(sketch, queries);
  }
  frames = std::min(frames, queries.size());
  last_error_.clear();
  last_status_ = Status::kOk;
  last_failure_ = FailureKind::kNone;
  last_attempts_ = 0;

  // Encode every chunk up front; the wire buffers then go out as one
  // vectored write per attempt.
  std::vector<std::string> wire(frames);
  std::vector<std::size_t> chunk_sizes(frames);
  const std::size_t per = queries.size() / frames;
  const std::size_t extra = queries.size() % frames;
  const std::span<const std::vector<std::uint32_t>> all(queries);
  std::size_t begin = 0;
  for (std::size_t i = 0; i < frames; ++i) {
    const std::size_t count = per + (i < extra ? 1 : 0);
    if (!EncodeQueryFrame(Opcode::kEstimate, sketch,
                          all.subspan(begin, count), &wire[i])) {
      FailLocal("request exceeds protocol limits");
      return std::nullopt;
    }
    chunk_sizes[i] = count;
    begin += count;
  }

  const auto start = std::chrono::steady_clock::now();
  const int max_attempts = factory_ ? std::max(1, policy_.max_attempts) : 1;
  for (int attempt = 1;; ++attempt) {
    last_attempts_ = attempt;
    if (!EnsureConnected()) {
      last_error_ = factory_ ? "connect failed" : "connection is closed";
      last_failure_ = FailureKind::kTransport;
    } else {
      ApplyReadTimeout(start);
      std::vector<ConstBuffer> spans(frames);
      for (std::size_t i = 0; i < frames; ++i) {
        spans[i] = ConstBuffer{wire[i].data(), wire[i].size()};
      }
      if (!transport_->WritevAll(spans.data(), spans.size())) {
        Poison("send failed (peer closed the connection)");
      } else {
        std::vector<double> answers;
        answers.reserve(queries.size());
        bool refused = false;
        bool lost = false;
        // Replies come back in request order (the protocol's pipelining
        // contract). On a kError chunk keep draining the rest so the
        // connection stays usable, exactly like a single-frame refusal.
        for (std::size_t i = 0; i < frames; ++i) {
          Frame reply;
          if (ReadFrame(*transport_, &reply) != ReadResult::kFrame) {
            Poison(
                "no reply (peer closed, deadline expired, or malformed "
                "frame)");
            lost = true;
            break;
          }
          if (reply.header.opcode == Opcode::kError) {
            if (!refused) {
              last_status_ = static_cast<Status>(reply.header.status);
              const auto message = DecodeErrorMessage(reply.body);
              last_error_ = message.has_value() ? *message : "server error";
            }
            refused = true;
            continue;
          }
          if (reply.header.opcode != Opcode::kEstimateReply) {
            Poison("unexpected reply opcode");
            lost = true;
            break;
          }
          auto chunk = DecodeEstimateReply(reply.body);
          if (!chunk.has_value() || chunk->size() != chunk_sizes[i]) {
            Poison("undecodable estimate reply");
            lost = true;
            break;
          }
          answers.insert(answers.end(), chunk->begin(), chunk->end());
        }
        if (!lost) {
          if (refused) {
            last_failure_ = FailureKind::kRequest;
            return std::nullopt;
          }
          last_failure_ = FailureKind::kNone;
          return answers;
        }
      }
    }
    if (attempt >= max_attempts) return std::nullopt;
    obs::MetricsRegistry::Default()
        .GetCounter("client_retries_total")
        ->Add();
    const auto backoff = NextBackoff(attempt);
    if (policy_.deadline.count() > 0 &&
        std::chrono::steady_clock::now() + backoff - start >=
            policy_.deadline) {
      return std::nullopt;
    }
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
  }
}

std::optional<std::vector<bool>> SketchClient::AreFrequent(
    const std::string& sketch,
    const std::vector<std::vector<std::uint32_t>>& queries) {
  std::string wire;
  if (!EncodeQueryFrame(Opcode::kAreFrequent, sketch, queries, &wire)) {
    FailLocal("request exceeds protocol limits");
    return std::nullopt;
  }
  const auto reply = RoundTripFrame(wire, Opcode::kAreFrequentReply);
  if (!reply.has_value()) return std::nullopt;
  auto answers = DecodeAreFrequentReply(reply->body);
  if (!answers.has_value() || answers->size() != queries.size()) {
    Poison("undecodable are-frequent reply");
    return std::nullopt;
  }
  return answers;
}

std::optional<SketchInfo> SketchClient::Info(const std::string& sketch) {
  std::string body;
  if (!EncodeInfoRequest(sketch, &body)) {
    FailLocal("sketch name exceeds protocol limits");
    return std::nullopt;
  }
  const auto reply = RoundTrip(Opcode::kInfo, body, Opcode::kInfoReply);
  if (!reply.has_value()) return std::nullopt;
  auto info = DecodeInfoReply(reply->body);
  if (!info.has_value()) {
    Poison("undecodable info reply");
    return std::nullopt;
  }
  return info;
}

std::optional<SnapshotInfo> SketchClient::Refresh(const std::string& sketch) {
  std::string body;
  if (!EncodeRefreshRequest(sketch, &body)) {
    FailLocal("sketch name exceeds protocol limits");
    return std::nullopt;
  }
  const auto reply =
      RoundTrip(Opcode::kRefresh, body, Opcode::kRefreshReply);
  if (!reply.has_value()) return std::nullopt;
  auto info = DecodeSnapshotReply(reply->body);
  if (!info.has_value()) {
    Poison("undecodable refresh reply");
    return std::nullopt;
  }
  return info;
}

std::optional<SnapshotInfo> SketchClient::Subscribe(const std::string& sketch,
                                                    std::uint64_t min_epoch,
                                                    std::uint32_t timeout_ms) {
  SubscribeRequest request;
  request.sketch = sketch;
  request.min_epoch = min_epoch;
  request.timeout_ms = timeout_ms;
  std::string body;
  if (!EncodeSubscribeRequest(request, &body)) {
    FailLocal("subscribe request exceeds protocol limits");
    return std::nullopt;
  }
  const auto reply =
      RoundTrip(Opcode::kSubscribe, body, Opcode::kSubscribeReply);
  if (!reply.has_value()) return std::nullopt;
  auto info = DecodeSnapshotReply(reply->body);
  if (!info.has_value()) {
    Poison("undecodable subscribe reply");
    return std::nullopt;
  }
  return info;
}

std::optional<StatsReply> SketchClient::Stats() {
  const auto reply =
      RoundTrip(Opcode::kStats, std::string(), Opcode::kStatsReply);
  if (!reply.has_value()) return std::nullopt;
  auto stats = DecodeStatsReply(reply->body);
  if (!stats.has_value()) {
    Poison("undecodable stats reply");
    return std::nullopt;
  }
  return stats;
}

}  // namespace ifsketch::serve

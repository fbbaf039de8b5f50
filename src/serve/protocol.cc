#include "serve/protocol.h"

#include <algorithm>
#include <cstring>

namespace ifsketch::serve {
namespace {

template <typename T>
void PutRaw(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void PutString(std::string* out, std::string_view s) {
  PutRaw<std::uint16_t>(out, static_cast<std::uint16_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Bounds-checked cursor over a body buffer: every Get advances only on
/// success, so a decoder can bail at the first short read.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Get(T& value) {
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool GetString(std::string& value) {
    std::string_view view;
    if (!GetStringView(view)) return false;
    value.assign(view);
    return true;
  }

  /// A length-prefixed string borrowed from the buffer.
  bool GetStringView(std::string_view& value) {
    std::uint16_t len = 0;
    if (!Get(len) || !Skip(len)) return false;
    value = data_.substr(pos_ - len, len);
    return true;
  }

  bool Skip(std::size_t bytes) {
    if (data_.size() - pos_ < bytes) return false;
    pos_ += bytes;
    return true;
  }

  bool Done() const { return pos_ == data_.size(); }

  std::size_t Remaining() const { return data_.size() - pos_; }

  /// The unread tail of the buffer.
  std::string_view Rest() const { return data_.substr(pos_); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Fixed-width little-endian store at a raw cursor, advancing it.
template <typename T>
char* Store(char* p, T value) {
  std::memcpy(p, &value, sizeof(T));
  return p + sizeof(T);
}

/// Byte length of the query-request body for (sketch, queries), or 0
/// when it exceeds a protocol limit (a real body is never empty).
std::size_t QueryBodyBytes(
    std::string_view sketch,
    std::span<const std::vector<std::uint32_t>> queries) {
  if (sketch.size() > 0xffff || queries.size() > kMaxQueriesPerRequest) {
    return 0;
  }
  std::size_t bytes = sizeof(std::uint16_t) + sketch.size() +
                      sizeof(std::uint32_t) +
                      queries.size() * sizeof(std::uint16_t);
  for (const auto& attrs : queries) {
    if (attrs.size() > 0xffff) return 0;
    bytes += attrs.size() * sizeof(std::uint32_t);
  }
  return bytes;
}

/// Writes the query-request body QueryBodyBytes sized at `p`.
void WriteQueryBody(char* p, std::string_view sketch,
                    std::span<const std::vector<std::uint32_t>> queries) {
  p = Store(p, static_cast<std::uint16_t>(sketch.size()));
  if (!sketch.empty()) std::memcpy(p, sketch.data(), sketch.size());
  p = Store(p + sketch.size(), static_cast<std::uint32_t>(queries.size()));
  for (const auto& attrs : queries) {
    p = Store(p, static_cast<std::uint16_t>(attrs.size()));
    const std::size_t run = attrs.size() * sizeof(std::uint32_t);
    if (run != 0) std::memcpy(p, attrs.data(), run);
    p += run;
  }
}

bool KnownOpcode(std::uint8_t byte) {
  switch (static_cast<Opcode>(byte)) {
    case Opcode::kEstimate:
    case Opcode::kAreFrequent:
    case Opcode::kInfo:
    case Opcode::kRefresh:
    case Opcode::kSubscribe:
    case Opcode::kStats:
    case Opcode::kEstimateReply:
    case Opcode::kAreFrequentReply:
    case Opcode::kInfoReply:
    case Opcode::kRefreshReply:
    case Opcode::kSubscribeReply:
    case Opcode::kStatsReply:
    case Opcode::kError:
      return true;
  }
  return false;
}

}  // namespace

bool EncodeFrame(Opcode opcode, std::uint8_t status, std::string_view body,
                 std::string* out) {
  if (body.size() > kMaxBodyBytes) return false;
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(opcode, status, static_cast<std::uint32_t>(body.size()),
                    header);
  out->append(header, kFrameHeaderBytes);
  out->append(body.data(), body.size());
  return true;
}

bool EncodeFrameHeader(Opcode opcode, std::uint8_t status,
                       std::uint32_t body_length, char* out) {
  if (body_length > kMaxBodyBytes) return false;
  std::memcpy(out, kFrameMagic, sizeof(kFrameMagic));
  const std::uint16_t version = kProtocolVersion;
  std::memcpy(out + 4, &version, sizeof(version));
  out[6] = static_cast<char>(opcode);
  out[7] = static_cast<char>(status);
  std::memcpy(out + 8, &body_length, sizeof(body_length));
  return true;
}

bool EncodeQueryRequest(const QueryRequest& request, std::string* body) {
  const std::size_t bytes = QueryBodyBytes(request.sketch, request.queries);
  if (bytes == 0) return false;
  const std::size_t at = body->size();
  body->resize(at + bytes);
  WriteQueryBody(body->data() + at, request.sketch, request.queries);
  return true;
}

bool EncodeQueryFrame(Opcode opcode, std::string_view sketch,
                      std::span<const std::vector<std::uint32_t>> queries,
                      std::string* out) {
  const std::size_t bytes = QueryBodyBytes(sketch, queries);
  if (bytes == 0 || bytes > kMaxBodyBytes) return false;
  const std::size_t at = out->size();
  out->resize(at + kFrameHeaderBytes + bytes);
  char* p = out->data() + at;
  EncodeFrameHeader(opcode, 0, static_cast<std::uint32_t>(bytes), p);
  WriteQueryBody(p + kFrameHeaderBytes, sketch, queries);
  return true;
}

void EncodeEstimateReply(const std::vector<double>& answers,
                         std::string* body) {
  PutRaw<std::uint32_t>(body, static_cast<std::uint32_t>(answers.size()));
  body->append(reinterpret_cast<const char*>(answers.data()),
               answers.size() * sizeof(double));
}

void EncodeAreFrequentReply(const std::vector<bool>& answers,
                            std::string* body) {
  PutRaw<std::uint32_t>(body, static_cast<std::uint32_t>(answers.size()));
  // Pack bits LSB-first, the same order the IFSK payload uses.
  const std::size_t at = body->size();
  body->resize(at + (answers.size() + 7) / 8, '\0');
  char* bytes = body->data() + at;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (answers[i]) bytes[i / 8] |= static_cast<char>(1 << (i % 8));
  }
}

bool EncodeInfoRequest(std::string_view sketch, std::string* body) {
  if (sketch.size() > 0xffff) return false;
  PutString(body, sketch);
  return true;
}

void EncodeInfoReply(const SketchInfo& info, std::string* body) {
  PutString(body, info.algorithm);
  PutRaw<std::uint32_t>(body, info.k);
  PutRaw<double>(body, info.eps);
  PutRaw<double>(body, info.delta);
  PutRaw<std::uint8_t>(body, info.scope);
  PutRaw<std::uint8_t>(body, info.answer);
  PutRaw<std::uint64_t>(body, info.n);
  PutRaw<std::uint64_t>(body, info.d);
  PutRaw<std::uint64_t>(body, info.summary_bits);
}

bool EncodeRefreshRequest(std::string_view sketch, std::string* body) {
  if (sketch.size() > 0xffff) return false;
  PutString(body, sketch);
  return true;
}

bool EncodeSubscribeRequest(const SubscribeRequest& request,
                            std::string* body) {
  if (request.sketch.size() > 0xffff) return false;
  if (request.timeout_ms > kMaxSubscribeTimeoutMs) return false;
  PutString(body, request.sketch);
  PutRaw<std::uint64_t>(body, request.min_epoch);
  PutRaw<std::uint32_t>(body, request.timeout_ms);
  return true;
}

void EncodeSnapshotReply(const SnapshotInfo& info, std::string* body) {
  PutRaw<std::uint64_t>(body, info.epoch);
  PutRaw<std::uint64_t>(body, info.rows_seen);
}

bool EncodeStatsReply(const StatsReply& reply, std::string* body) {
  if (reply.counters.size() > kMaxMetricsPerReply ||
      reply.gauges.size() > kMaxMetricsPerReply ||
      reply.histograms.size() > kMaxMetricsPerReply) {
    return false;
  }
  PutRaw<std::uint32_t>(body,
                        static_cast<std::uint32_t>(reply.counters.size()));
  for (const StatsCounter& c : reply.counters) {
    if (c.name.size() > 0xffff) return false;
    PutString(body, c.name);
    PutRaw<std::uint64_t>(body, c.value);
  }
  PutRaw<std::uint32_t>(body,
                        static_cast<std::uint32_t>(reply.gauges.size()));
  for (const StatsGauge& g : reply.gauges) {
    if (g.name.size() > 0xffff) return false;
    PutString(body, g.name);
    PutRaw<std::int64_t>(body, g.value);
  }
  PutRaw<std::uint32_t>(body,
                        static_cast<std::uint32_t>(reply.histograms.size()));
  for (const StatsHistogram& h : reply.histograms) {
    if (h.name.size() > 0xffff) return false;
    if (h.buckets.size() > kMaxHistogramBuckets) return false;
    PutString(body, h.name);
    PutRaw<std::uint64_t>(body, h.count);
    PutRaw<std::uint64_t>(body, h.sum);
    PutRaw<std::uint64_t>(body, h.max);
    PutRaw<std::uint32_t>(body,
                          static_cast<std::uint32_t>(h.buckets.size()));
    for (std::uint64_t b : h.buckets) PutRaw<std::uint64_t>(body, b);
  }
  return true;
}

void EncodeError(Status status, std::string_view message, std::string* out) {
  std::string body;
  EncodeErrorBody(message, &body);
  EncodeFrame(Opcode::kError, static_cast<std::uint8_t>(status), body, out);
}

void EncodeErrorBody(std::string_view message, std::string* body) {
  // Error messages are diagnostic, not data: truncate rather than fail.
  if (message.size() > 0xffff) message = message.substr(0, 0xffff);
  PutString(body, message);
}

std::optional<FrameHeader> DecodeFrameHeader(const char* data,
                                             std::size_t size) {
  if (size != kFrameHeaderBytes) return std::nullopt;
  if (std::memcmp(data, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return std::nullopt;
  }
  std::uint16_t version = 0;
  std::memcpy(&version, data + 4, sizeof(version));
  if (version != kProtocolVersion) return std::nullopt;
  const std::uint8_t opcode = static_cast<std::uint8_t>(data[6]);
  if (!KnownOpcode(opcode)) return std::nullopt;
  FrameHeader header;
  header.opcode = static_cast<Opcode>(opcode);
  header.status = static_cast<std::uint8_t>(data[7]);
  std::memcpy(&header.body_length, data + 8, sizeof(header.body_length));
  if (header.body_length > kMaxBodyBytes) return std::nullopt;
  return header;
}

std::optional<QueryRequestView> ViewQueryRequest(std::string_view body) {
  Reader in(body);
  QueryRequestView view;
  if (!in.GetStringView(view.sketch) || !in.Get(view.count)) {
    return std::nullopt;
  }
  if (view.count > kMaxQueriesPerRequest) return std::nullopt;
  // Every query costs at least its u16 attribute count, so a declared
  // count beyond half the remaining bytes is a lie: reject it before
  // walking (and before a decoder sizes anything from it).
  if (view.count > in.Remaining() / 2) return std::nullopt;
  view.records = in.Rest();
  for (std::uint32_t q = 0; q < view.count; ++q) {
    std::uint16_t attrs = 0;
    if (!in.Get(attrs) ||
        !in.Skip(std::size_t{attrs} * sizeof(std::uint32_t))) {
      return std::nullopt;
    }
  }
  if (!in.Done()) return std::nullopt;
  return view;
}

std::optional<QueryRequest> DecodeQueryRequest(std::string_view body) {
  const auto view = ViewQueryRequest(body);
  if (!view.has_value()) return std::nullopt;
  QueryRequest request;
  request.sketch.assign(view->sketch);
  request.queries.reserve(view->count);
  ForEachQuery(*view, [&request](const QueryRecord& record) {
    auto& query = request.queries.emplace_back(record.size);
    if (record.size != 0) {
      std::memcpy(query.data(), record.attrs,
                  query.size() * sizeof(std::uint32_t));
    }
    return true;
  });
  return request;
}

std::optional<std::vector<double>> DecodeEstimateReply(
    std::string_view body) {
  Reader in(body);
  std::uint32_t count = 0;
  if (!in.Get(count) || count > kMaxQueriesPerRequest) return std::nullopt;
  // The body is exactly `count` raw doubles; check before allocating.
  const std::string_view raw = in.Rest();
  if (raw.size() != static_cast<std::size_t>(count) * sizeof(double)) {
    return std::nullopt;
  }
  std::vector<double> answers(count);
  if (count != 0) std::memcpy(answers.data(), raw.data(), raw.size());
  return answers;
}

std::optional<std::vector<bool>> DecodeAreFrequentReply(
    std::string_view body) {
  Reader in(body);
  std::uint32_t count = 0;
  if (!in.Get(count) || count > kMaxQueriesPerRequest) return std::nullopt;
  // The body is exactly the packed bit bytes; check before allocating.
  if (in.Remaining() != (static_cast<std::size_t>(count) + 7) / 8) {
    return std::nullopt;
  }
  std::vector<bool> answers(count);
  std::uint8_t byte = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (i % 8 == 0 && !in.Get(byte)) return std::nullopt;
    answers[i] = (byte >> (i % 8)) & 1;
  }
  return answers;
}

std::optional<std::string> DecodeInfoRequest(std::string_view body) {
  Reader in(body);
  std::string sketch;
  if (!in.GetString(sketch) || !in.Done()) return std::nullopt;
  return sketch;
}

std::optional<SketchInfo> DecodeInfoReply(std::string_view body) {
  Reader in(body);
  SketchInfo info;
  if (!in.GetString(info.algorithm) || !in.Get(info.k) ||
      !in.Get(info.eps) || !in.Get(info.delta) || !in.Get(info.scope) ||
      !in.Get(info.answer) || !in.Get(info.n) || !in.Get(info.d) ||
      !in.Get(info.summary_bits) || !in.Done()) {
    return std::nullopt;
  }
  // Enum bytes must name a real enumerator (same rule as ReadSketch).
  if (info.scope > 1 || info.answer > 1) return std::nullopt;
  return info;
}

std::optional<std::string> DecodeRefreshRequest(std::string_view body) {
  Reader in(body);
  std::string sketch;
  if (!in.GetString(sketch) || !in.Done()) return std::nullopt;
  return sketch;
}

std::optional<SubscribeRequest> DecodeSubscribeRequest(std::string_view body) {
  Reader in(body);
  SubscribeRequest request;
  if (!in.GetString(request.sketch) || !in.Get(request.min_epoch) ||
      !in.Get(request.timeout_ms) || !in.Done()) {
    return std::nullopt;
  }
  // An oversize timeout would park a server connection thread; reject it
  // at the codec like every other limit.
  if (request.timeout_ms > kMaxSubscribeTimeoutMs) return std::nullopt;
  return request;
}

std::optional<SnapshotInfo> DecodeSnapshotReply(std::string_view body) {
  Reader in(body);
  SnapshotInfo info;
  if (!in.Get(info.epoch) || !in.Get(info.rows_seen) || !in.Done()) {
    return std::nullopt;
  }
  return info;
}

std::optional<StatsReply> DecodeStatsReply(std::string_view body) {
  Reader in(body);
  StatsReply reply;
  std::uint32_t count = 0;

  // Counters: each row costs at least its u16 name length + u64 value;
  // bound every declared count by the bytes actually present before
  // sizing anything from it (the DecodeQueryRequest discipline).
  if (!in.Get(count) || count > kMaxMetricsPerReply) return std::nullopt;
  if (count > in.Remaining() / (2 + 8)) return std::nullopt;
  reply.counters.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    StatsCounter c;
    if (!in.GetString(c.name) || !in.Get(c.value)) return std::nullopt;
    reply.counters.push_back(std::move(c));
  }

  if (!in.Get(count) || count > kMaxMetricsPerReply) return std::nullopt;
  if (count > in.Remaining() / (2 + 8)) return std::nullopt;
  reply.gauges.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    StatsGauge g;
    if (!in.GetString(g.name) || !in.Get(g.value)) return std::nullopt;
    reply.gauges.push_back(std::move(g));
  }

  // Histograms: minimum row is name length u16 + count/sum/max u64 +
  // bucket_count u32.
  if (!in.Get(count) || count > kMaxMetricsPerReply) return std::nullopt;
  if (count > in.Remaining() / (2 + 3 * 8 + 4)) return std::nullopt;
  reply.histograms.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    StatsHistogram h;
    std::uint32_t buckets = 0;
    if (!in.GetString(h.name) || !in.Get(h.count) || !in.Get(h.sum) ||
        !in.Get(h.max) || !in.Get(buckets)) {
      return std::nullopt;
    }
    if (buckets > kMaxHistogramBuckets) return std::nullopt;
    if (in.Remaining() < static_cast<std::size_t>(buckets) * 8) {
      return std::nullopt;
    }
    h.buckets.resize(buckets);
    for (std::uint32_t b = 0; b < buckets; ++b) {
      if (!in.Get(h.buckets[b])) return std::nullopt;
    }
    reply.histograms.push_back(std::move(h));
  }
  if (!in.Done()) return std::nullopt;
  return reply;
}

std::optional<std::string> DecodeErrorMessage(std::string_view body) {
  Reader in(body);
  std::string message;
  if (!in.GetString(message) || !in.Done()) return std::nullopt;
  return message;
}

FrameDecoder::Step FrameDecoder::Consume(const char* data, std::size_t size,
                                         std::size_t* consumed) {
  *consumed = 0;
  while (true) {
    switch (state_) {
      case State::kMalformed:
        return Step::kMalformed;
      case State::kHeader: {
        const std::size_t take =
            std::min(size - *consumed, kFrameHeaderBytes - have_);
        std::memcpy(header_ + have_, data + *consumed, take);
        have_ += take;
        *consumed += take;
        if (have_ < kFrameHeaderBytes) return Step::kNeedMore;
        std::optional<FrameHeader> header =
            DecodeFrameHeader(header_, kFrameHeaderBytes);
        if (!header) {
          state_ = State::kMalformed;
          return Step::kMalformed;
        }
        // The length field was validated against kMaxBodyBytes above, so
        // this resize is bounded.
        frame_.header = *header;
        frame_.body.resize(header->body_length);
        have_ = 0;
        state_ = State::kBody;
        break;
      }
      case State::kBody: {
        const std::size_t take =
            std::min(size - *consumed, frame_.body.size() - have_);
        std::memcpy(frame_.body.data() + have_, data + *consumed, take);
        have_ += take;
        *consumed += take;
        if (have_ < frame_.body.size()) return Step::kNeedMore;
        have_ = 0;
        state_ = State::kHeader;
        return Step::kFrame;
      }
    }
  }
}

}  // namespace ifsketch::serve

// The serving loop: protocol dispatch over a Transport, plus TCP glue.
//
// DispatchRequest answers one request frame and is the whole server
// behavior per request: the epoll reactor (serve/reactor.h), the one TCP
// front end, calls it inline on its event loops, and ServeConnection
// runs it in a blocking loop over any Transport -- the tests and
// benches use that loop over a LoopbackTransport pair. Either way a
// frame gets the identical reply bytes. Requests on one Router run side
// by side; nothing here or in the Router makes one wait for another.
// Malformed frames are answered with a kError frame where framing
// permits and the connection is closed where it does not (a bad header
// loses frame sync, so resynchronization is impossible by design --
// length-prefixed framing has no frame boundary markers to hunt for).
//
// The client side of TCP lives here too: FdTransport over a connected
// socket and TcpConnect, which SketchClient and the benches use.
#ifndef IFSKETCH_SERVE_SERVER_H_
#define IFSKETCH_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/router.h"
#include "serve/transport.h"

namespace ifsketch::serve {

/// One encoded reply, ready to frame: the unit DispatchRequest returns
/// and the reactor's in-order reply queue carries.
struct ReplyFrame {
  Opcode opcode = Opcode::kError;
  std::uint8_t status = 0;  ///< Status byte on kError replies, else 0
  std::string body;
};

/// Answers one request frame: decode, route through `router`, encode.
/// Every request opcode (and every failure) yields exactly one reply
/// frame; a non-request opcode in a valid frame yields a kError reply
/// without killing anything (the frame was consumed, framing holds).
/// Counts serve_requests_total{op=} and runs under a RequestTrace
/// exactly like the blocking loop always did. Thread-safe against one
/// Router; per-op counters are cached thread-local so the hot path
/// never takes the registry mutex.
ReplyFrame DispatchRequest(Router& router, Opcode opcode,
                           std::string_view body);

/// Serves one connection to completion: reads frames, dispatches through
/// `router`, writes replies. Returns when the peer closes cleanly or a
/// malformed frame forces the connection down. Safe to run on many
/// threads against one Router.
void ServeConnection(Router& router, Transport& transport);

/// Transport over an open file descriptor (socket); owns and closes it.
class FdTransport : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport() override;

  bool WriteAll(const void* data, std::size_t size) override;
  /// writev(2): all spans go out in one gathering write path, no staging
  /// copy -- the pipelined client sends a whole batch of frames this way.
  bool WritevAll(const ConstBuffer* buffers, std::size_t count) override;
  bool ReadAll(void* data, std::size_t size) override;
  void CloseWrite() override;

  /// SO_RCVTIMEO: a recv stalled past the timeout fails the read (the
  /// client-deadline contract). Zero restores blocking reads.
  bool SetReadTimeout(std::chrono::milliseconds timeout) override;

 private:
  int fd_;
};

/// Connects to 127.0.0.1:`port`; nullptr on failure.
std::unique_ptr<Transport> TcpConnect(std::uint16_t port);

}  // namespace ifsketch::serve

#endif  // IFSKETCH_SERVE_SERVER_H_

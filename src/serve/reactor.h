// Event-loop serving: an epoll reactor front end over the Router.
//
// The reactor is the one TCP front end. It serves the protocol with a
// fixed thread budget instead of a thread and a stack per connection:
// N event-loop threads multiplex all connections through epoll, so ten
// thousand idle connections cost ten thousand fds and nothing else.
// ServeConnection (serve/server.h), the blocking loop over a Transport,
// stays as the in-process loopback harness. Layout:
//
//   - Loop threads (default: hardware concurrency, `--loop-threads` in
//     the binary). Each owns an epoll instance, an eventfd for
//     cross-thread wakeups, and the connections assigned to it
//     round-robin at accept. Only the owning loop thread touches a
//     connection's fd or epoll registration; everything cross-thread
//     moves through the loop's inbox + eventfd. Loop 0 additionally
//     owns the non-blocking listener.
//   - Run to completion. A loop thread answers every request it decodes
//     itself -- DispatchRequest's acquire, routing and kernels run
//     inline -- and flushes the replies of one read pass with one
//     sendmsg, so a request costs no thread handoff and no second
//     wakeup. A typical served batch is too small to pay for a pool
//     wake (core::kFanOutChunkWords), so its kernels run wholly on the
//     loop thread too; only a batch worth several chunks of work fans
//     out on util::ThreadPool, with the loop thread taking part
//     (ParallelFor has the caller participate).
//     Trade-off: a heavy request (a large batch, a sketch load on a pod
//     cache miss) delays the other connections on its own loop until it
//     finishes; connections on other loops are unaffected, and loops
//     default to one per core.
//   - Dispatch workers (a small private pool) run only kSubscribe, the
//     one opcode whose contract allows blocking: a long-poll parks its
//     worker for up to the request timeout, never a loop thread. Size
//     the pool above the expected concurrent subscriber count if that
//     matters.
//
// Pipelining (the protocol.h contract): each connection keeps an ordered
// deque of reply slots, one per request frame in arrival order. A
// SUBSCRIBE on a worker may complete after the requests behind it,
// which complete inline, but the loop only ever writes the completed
// prefix of the deque, so replies hit the wire strictly in request
// order.
// Completed replies go out with writev, headers and bodies as separate
// spans straight from the slots: batched answers are never copied into
// a staging buffer.
//
// Backpressure, two bounds per connection (ReactorOptions):
//   - max_outstanding / pause_outbound_bytes: the loop stops reading
//     (drops EPOLLIN) while a connection has that many unanswered
//     frames or that many queued reply bytes, resuming as the queue
//     drains. A client that reads its replies never notices.
//   - max_outbound_bytes: a client that stops reading replies while
//     still posting requests gets its connection closed once the queued
//     replies cross this hard cap (serve_backpressure_hangups_total) --
//     bounded server memory, clean hangup, loop thread unaffected.
//
// max_connections is enforced at accept: beyond the cap, accept then
// immediately close, count serve_conns_rejected_total, and keep looping
// -- the listener never blocks and standing connections are unaffected.
//
// Observability (all in the router's registry): per-loop gauges
// serve_loop_connections{loop=} and serve_loop_outbound_bytes{loop=},
// per-loop counter serve_loop_wakeups_total{loop=}, plus the counters
// above. Listen also sets the process-identity gauge
// ifsketch_build_info{build_type=,compiler=,kernel_tier=} to 1, so a
// STATS dump says which build and kernel tier produced its numbers.
// Request metrics and traces are identical to ServeConnection's because
// both run the same DispatchRequest.
#ifndef IFSKETCH_SERVE_REACTOR_H_
#define IFSKETCH_SERVE_REACTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/router.h"

namespace ifsketch::serve {

/// The process-identity gauge's full name: ifsketch_build_info with the
/// CMake build type, the compiler and its version, and the kernel tier
/// queries dispatch through (util::ActiveKernelTier()) as labels.
std::string BuildInfoMetricName();

struct ReactorOptions {
  /// Event-loop threads; 0 = hardware concurrency.
  std::size_t loop_threads = 0;
  /// Dispatch workers, which run only kSubscribe long-polls (every other
  /// request runs on its loop thread), so this is how many SUBSCRIBEs
  /// can wait at once, later ones queue; 0 = max(4, loop threads).
  std::size_t dispatch_threads = 0;
  /// Concurrent-connection cap, enforced by reject-at-accept; 0 = no cap.
  std::size_t max_connections = 0;
  /// Unanswered frames per connection before the loop pauses reads.
  std::size_t max_outstanding = 128;
  /// Queued reply bytes per connection before the loop pauses reads.
  std::size_t pause_outbound_bytes = 4u << 20;
  /// Queued reply bytes per connection before the server hangs up; must
  /// exceed the largest reply a deployment emits (any value >=
  /// kMaxBodyBytes + header is safe). 0 = no cap.
  std::size_t max_outbound_bytes = 64u << 20;
};

/// The reactor server. Listen() binds and starts the threads; the
/// destructor force-closes everything. For a graceful shutdown call
/// StopAccepting() (e.g. from a signal thread) and then WaitDrained()
/// before destruction: standing connections are served until their
/// clients close.
class ReactorServer {
 public:
  explicit ReactorServer(Router& router, ReactorOptions options = {});
  ~ReactorServer();
  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port; see port()) and
  /// starts the loop and dispatch threads. False on bind failure; call
  /// at most once.
  bool Listen(std::uint16_t port);

  /// The bound port (after a successful Listen).
  std::uint16_t port() const;

  /// Stops accepting new connections (idempotent, any thread); standing
  /// connections keep being served.
  void StopAccepting();

  /// Blocks until StopAccepting() has been called and every connection
  /// has closed.
  void WaitDrained();

  std::size_t open_connections() const;
  std::uint64_t accepted_total() const;
  std::uint64_t rejected_total() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ifsketch::serve

#endif  // IFSKETCH_SERVE_REACTOR_H_

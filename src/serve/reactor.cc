#include "serve/reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "serve/server.h"
#include "util/kernels.h"

// The CMake build type, passed in by the top-level CMakeLists.txt.
#ifndef IFSKETCH_BUILD_TYPE
#define IFSKETCH_BUILD_TYPE "unknown"
#endif

namespace ifsketch::serve {

std::string BuildInfoMetricName() {
#if defined(__clang__)
  const std::string compiler = "clang " + std::to_string(__clang_major__) +
                               "." + std::to_string(__clang_minor__) + "." +
                               std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  const std::string compiler = "gcc " + std::to_string(__GNUC__) + "." +
                               std::to_string(__GNUC_MINOR__) + "." +
                               std::to_string(__GNUC_PATCHLEVEL__);
#else
  const std::string compiler = "unknown";
#endif
  std::string build_type = IFSKETCH_BUILD_TYPE;
  if (build_type.empty()) build_type = "unknown";
  return std::string("ifsketch_build_info{build_type=\"") + build_type +
         "\",compiler=\"" + compiler + "\",kernel_tier=\"" +
         util::KernelTierName(util::ActiveKernelTier()) + "\"}";
}

namespace {

/// Per-recv buffer and per-wakeup read budget: a single chatty
/// connection yields the loop after this much input (level-triggered
/// epoll re-reports whatever it left behind).
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kReadBudget = 256 * 1024;
/// iovec spans per writev call (well under IOV_MAX everywhere).
constexpr int kMaxIov = 64;

}  // namespace

struct ReactorServer::Impl {
  /// One reply slot, created at frame arrival in request order. The loop
  /// thread fills it inline, or a dispatch worker does for a kSubscribe
  /// (done flips under mu); the loop writes the done prefix of the
  /// deque. Slots are only popped after being fully written, and deque
  /// push/pop at the ends never moves other elements, so a worker's slot
  /// pointer stays valid for the task's lifetime.
  struct PendingReply {
    bool done = false;
    char header[kFrameHeaderBytes];
    std::string body;
  };

  struct Conn {
    int fd = -1;
    std::size_t loop = 0;
    FrameDecoder decoder;  // loop thread only
    std::uint32_t armed = EPOLLIN;  // epoll mask last set; loop thread only

    std::mutex mu;  // guards everything below
    std::deque<PendingReply> pending;
    std::size_t inflight = 0;        // dispatched, slot not yet done
    std::size_t outbound_bytes = 0;  // done-but-unwritten reply bytes
    std::size_t write_off = 0;       // bytes of pending.front() written
    bool paused = false;             // EPOLLIN dropped (backpressure)
    bool want_write = false;         // EPOLLOUT armed
    bool read_done = false;          // EOF or malformed: no more requests
    bool overflow = false;           // outbound hard cap tripped
    bool dead = false;               // fd closed, detached from its loop
  };

  struct Loop {
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;
    // Loop-thread-only state.
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    // A connection closed mid-batch may still have stale events in the
    // current epoll_wait result; the graveyard keeps the object alive
    // through the batch and the set marks it skippable.
    std::vector<std::shared_ptr<Conn>> graveyard;
    std::unordered_set<Conn*> closed_in_batch;
    // Cross-thread inbox, drained on eventfd wakeups.
    std::mutex inbox_mu;
    std::vector<std::shared_ptr<Conn>> incoming;
    std::vector<std::shared_ptr<Conn>> completions;

    obs::Gauge* g_conns = nullptr;
    obs::Gauge* g_outbound = nullptr;
    obs::Counter* c_wakeups = nullptr;
  };

  Router& router;
  ReactorOptions options;

  int listen_fd = -1;
  std::uint16_t port = 0;
  std::vector<std::unique_ptr<Loop>> loops;
  std::size_t next_loop = 0;  // loop 0 (the accepting loop) only

  std::atomic<bool> stop_accepting{false};
  std::atomic<bool> stopping{false};
  std::atomic<std::size_t> open_conns{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  obs::Counter* c_rejected = nullptr;
  obs::Counter* c_hangups = nullptr;

  std::mutex drain_mu;
  std::condition_variable drain_cv;

  std::vector<std::thread> workers;
  std::mutex work_mu;
  std::condition_variable work_cv;
  std::deque<std::function<void()>> work;
  bool work_stop = false;

  Impl(Router& r, ReactorOptions o) : router(r), options(o) {
    if (options.loop_threads == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      options.loop_threads = hw == 0 ? 1 : hw;
    }
    if (options.dispatch_threads == 0) {
      options.dispatch_threads = std::max<std::size_t>(4, options.loop_threads);
    }
  }

  ~Impl() { Shutdown(); }

  // ------------------------------------------------------------- setup

  bool Listen(std::uint16_t want_port) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listen_fd < 0) return false;
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(want_port);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listen_fd, 1024) != 0) {
      ::close(listen_fd);
      listen_fd = -1;
      return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      ::close(listen_fd);
      listen_fd = -1;
      return false;
    }
    port = ntohs(addr.sin_port);

    obs::MetricsRegistry& registry = router.registry();
    registry.GetGauge(BuildInfoMetricName())->Set(1);
    c_rejected = registry.GetCounter("serve_conns_rejected_total");
    c_hangups = registry.GetCounter("serve_backpressure_hangups_total");

    loops.reserve(options.loop_threads);
    for (std::size_t i = 0; i < options.loop_threads; ++i) {
      auto loop = std::make_unique<Loop>();
      loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      loop->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (loop->epoll_fd < 0 || loop->event_fd < 0) return false;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = nullptr;  // nullptr tags the eventfd
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev);
      const std::string idx = std::to_string(i);
      loop->g_conns = registry.GetGauge(
          obs::LabeledName("serve_loop_connections", "loop", idx));
      loop->g_outbound = registry.GetGauge(
          obs::LabeledName("serve_loop_outbound_bytes", "loop", idx));
      loop->c_wakeups = registry.GetCounter(
          obs::LabeledName("serve_loop_wakeups_total", "loop", idx));
      loops.push_back(std::move(loop));
    }
    {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = this;  // `this` tags the listener (loop 0 only)
      ::epoll_ctl(loops[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev);
    }
    for (std::size_t i = 0; i < loops.size(); ++i) {
      loops[i]->thread = std::thread([this, i] { LoopMain(i); });
    }
    workers.reserve(options.dispatch_threads);
    for (std::size_t i = 0; i < options.dispatch_threads; ++i) {
      workers.emplace_back([this] { WorkerMain(); });
    }
    return true;
  }

  void Shutdown() {
    if (loops.empty()) {
      if (listen_fd >= 0) ::close(listen_fd);
      listen_fd = -1;
      return;
    }
    StopAccepting();
    stopping.store(true, std::memory_order_release);
    for (auto& loop : loops) Wake(*loop);
    for (auto& loop : loops) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    {
      std::lock_guard<std::mutex> lock(work_mu);
      work_stop = true;
      work.clear();  // queued tasks are for closed connections
    }
    work_cv.notify_all();
    for (std::thread& w : workers) {
      if (w.joinable()) w.join();
    }
    workers.clear();
    for (auto& loop : loops) {
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->event_fd >= 0) ::close(loop->event_fd);
    }
    loops.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
  }

  void StopAccepting() {
    if (stop_accepting.exchange(true)) return;
    // shutdown(2) (not close) so loop 0's registration stays valid; the
    // loop sees EPOLLIN/HUP, accept fails, and it deregisters itself.
    if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
    {
      // An empty-but-stopped server must release WaitDrained.
      std::lock_guard<std::mutex> lock(drain_mu);
    }
    drain_cv.notify_all();
  }

  void WaitDrained() {
    std::unique_lock<std::mutex> lock(drain_mu);
    drain_cv.wait(lock, [this] {
      return stop_accepting.load() &&
             open_conns.load(std::memory_order_acquire) == 0;
    });
  }

  void Wake(Loop& loop) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(loop.event_fd, &one, sizeof(one));
  }

  // ------------------------------------------------------- event loops

  void LoopMain(std::size_t index) {
    Loop& loop = *loops[index];
    epoll_event events[128];
    for (;;) {
      const int n = ::epoll_wait(loop.epoll_fd, events, 128, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      loop.c_wakeups->Add();
      for (int i = 0; i < n; ++i) {
        void* tag = events[i].data.ptr;
        if (tag == nullptr) {
          std::uint64_t drained = 0;
          [[maybe_unused]] ssize_t r =
              ::read(loop.event_fd, &drained, sizeof(drained));
        } else if (tag == this) {
          AcceptReady();
        } else {
          Conn* raw = static_cast<Conn*>(tag);
          if (loop.closed_in_batch.count(raw) != 0) continue;
          auto it = loop.conns.find(raw->fd);
          if (it == loop.conns.end() || it->second.get() != raw) continue;
          std::shared_ptr<Conn> conn = it->second;
          bool flush = (events[i].events & EPOLLOUT) != 0;
          if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
            flush |= HandleReadable(loop, conn);
          }
          if (flush && loop.closed_in_batch.count(raw) == 0) {
            TryFlush(loop, conn);
          }
        }
      }
      ProcessInbox(loop);
      loop.graveyard.clear();
      loop.closed_in_batch.clear();
      if (stopping.load(std::memory_order_acquire)) {
        std::vector<std::shared_ptr<Conn>> all;
        all.reserve(loop.conns.size());
        for (auto& [fd, conn] : loop.conns) all.push_back(conn);
        for (auto& conn : all) CloseConn(loop, conn);
        loop.graveyard.clear();
        loop.closed_in_batch.clear();
        return;
      }
    }
  }

  void ProcessInbox(Loop& loop) {
    std::vector<std::shared_ptr<Conn>> incoming;
    std::vector<std::shared_ptr<Conn>> completions;
    {
      std::lock_guard<std::mutex> lock(loop.inbox_mu);
      incoming.swap(loop.incoming);
      completions.swap(loop.completions);
    }
    for (auto& conn : incoming) {
      if (stopping.load(std::memory_order_acquire)) {
        DropUnregistered(conn);
        continue;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      const int fd = conn->fd;
      if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        DropUnregistered(conn);
        continue;
      }
      loop.g_conns->Add(1);
      loop.conns.emplace(fd, std::move(conn));
    }
    for (auto& conn : completions) {
      bool dead;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        dead = conn->dead;
      }
      if (!dead) TryFlush(loop, conn);
    }
  }

  /// An accepted connection that never reached its loop's epoll set.
  void DropUnregistered(const std::shared_ptr<Conn>& conn) {
    ::close(conn->fd);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->dead = true;
    }
    open_conns.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lock(drain_mu);
    }
    drain_cv.notify_all();
  }

  void AcceptReady() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        // EAGAIN: drained. Anything else (EMFILE, or the shutdown(2)
        // from StopAccepting): stop for now; level-triggered epoll
        // retries if the condition persists.
        return;
      }
      if (stop_accepting.load(std::memory_order_acquire)) {
        ::close(fd);
        continue;
      }
      if (options.max_connections != 0 &&
          open_conns.load(std::memory_order_acquire) >=
              options.max_connections) {
        // Reject-at-accept: the peer sees an immediate EOF, standing
        // connections and the accept loop are unaffected.
        ::close(fd);
        rejected.fetch_add(1, std::memory_order_relaxed);
        c_rejected->Add();
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->loop = next_loop++ % loops.size();
      open_conns.fetch_add(1, std::memory_order_acq_rel);
      accepted.fetch_add(1, std::memory_order_relaxed);
      Loop& target = *loops[conn->loop];
      {
        std::lock_guard<std::mutex> lock(target.inbox_mu);
        target.incoming.push_back(std::move(conn));
      }
      Wake(target);
    }
  }

  /// Reads and answers what the socket holds, up to kReadBudget. True
  /// when the caller must TryFlush: replies completed inline, or the
  /// connection paused and its interest needs re-arming.
  bool HandleReadable(Loop& loop, const std::shared_ptr<Conn>& conn) {
    char buf[kReadChunk];
    std::size_t total = 0;
    bool answered = false;
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return answered;
        CloseConn(loop, conn);
        return false;
      }
      if (n == 0) {
        OnReadEof(loop, conn);
        return false;
      }
      std::size_t off = 0;
      bool malformed = false;
      while (off < static_cast<std::size_t>(n)) {
        std::size_t used = 0;
        const FrameDecoder::Step step = conn->decoder.Consume(
            buf + off, static_cast<std::size_t>(n) - off, &used);
        off += used;
        if (step == FrameDecoder::Step::kNeedMore) break;
        if (step == FrameDecoder::Step::kMalformed) {
          malformed = true;
          break;
        }
        Frame frame = conn->decoder.take();
        PendingReply* slot = nullptr;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->pending.emplace_back();
          slot = &conn->pending.back();
          ++conn->inflight;
        }
        if (frame.header.opcode == Opcode::kSubscribe) {
          // The one opcode allowed to block (a long-poll of up to
          // kMaxSubscribeTimeoutMs): park it on the pool, never the loop.
          Submit(conn, slot, std::move(frame));
        } else {
          // Run to completion here: no handoff, no second wakeup. The
          // caller flushes once per read pass, so a pipelined burst
          // still leaves in one sendmsg.
          Complete(loop, *conn, slot,
                   DispatchRequest(router, frame.header.opcode, frame.body));
          answered = true;
        }
      }
      if (malformed) {
        // Same contract as ServeConnection: answer what was already
        // read (the slots ahead in the deque), then one kError, then
        // close. Bytes after the malformed frame are never interpreted.
        FailConnRead(loop, conn, "malformed frame");
        return false;
      }
      bool pause = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        pause = conn->pending.size() >= options.max_outstanding ||
                conn->outbound_bytes >= options.pause_outbound_bytes;
        conn->paused = pause;
      }
      // TryFlush re-arms interest from `paused` (and lifts it again if
      // the inline replies drain the queue).
      if (pause) return true;
      total += static_cast<std::size_t>(n);
      // Drained, or over budget (yield; epoll re-reports the rest).
      if (static_cast<std::size_t>(n) < sizeof(buf)) return answered;
      if (total >= kReadBudget) return answered;
    }
  }

  void OnReadEof(Loop& loop, const std::shared_ptr<Conn>& conn) {
    if (conn->decoder.mid_frame()) {
      // Died mid-frame: ServeConnection answers this with kError
      // before hanging up; match it (best effort, the peer may only
      // half-closed and still be reading).
      FailConnRead(loop, conn, "malformed frame");
      return;
    }
    // Clean half-close: no more requests, but every already-read frame
    // still gets its reply before the connection closes.
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->read_done = true;
    }
    UpdateInterest(loop, conn.get());
    TryFlush(loop, conn);
  }

  /// Stops reading and queues the terminal kError reply behind whatever
  /// requests are already pending.
  void FailConnRead(Loop& loop, const std::shared_ptr<Conn>& conn,
                    std::string_view message) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->read_done = true;
      conn->pending.emplace_back();
      PendingReply& slot = conn->pending.back();
      EncodeErrorBody(message, &slot.body);
      EncodeFrameHeader(Opcode::kError,
                        static_cast<std::uint8_t>(Status::kBadRequest),
                        static_cast<std::uint32_t>(slot.body.size()),
                        slot.header);
      slot.done = true;
      conn->outbound_bytes += kFrameHeaderBytes + slot.body.size();
      loop.g_outbound->Add(
          static_cast<std::int64_t>(kFrameHeaderBytes + slot.body.size()));
    }
    UpdateInterest(loop, conn.get());
    TryFlush(loop, conn);
  }

  /// Re-arms the connection's epoll interest from its current flags,
  /// issuing EPOLL_CTL_MOD only when the mask actually changes (interest
  /// is level-triggered, so re-setting an unchanged mask is a no-op
  /// syscall). Loop thread only.
  void UpdateInterest(Loop& loop, Conn* conn) {
    epoll_event ev{};
    ev.data.ptr = conn;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->dead) return;
      if (!conn->read_done && !conn->paused) ev.events |= EPOLLIN;
      if (conn->want_write) ev.events |= EPOLLOUT;
    }
    if (ev.events == conn->armed) return;
    conn->armed = ev.events;
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  /// Writes the completed prefix of the reply deque with writev,
  /// advancing the partial-write cursor; closes the connection when the
  /// hard outbound cap tripped, the peer died, or a drained half-closed
  /// connection has nothing left to say. Loop thread only.
  void TryFlush(Loop& loop, const std::shared_ptr<Conn>& conn) {
    bool do_close = false;
    bool hangup = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->dead) return;
      if (conn->overflow) {
        hangup = true;
      } else {
        bool blocked = false;
        bool peer_dead = false;
        while (!blocked && !peer_dead) {
          iovec iov[kMaxIov];
          int cnt = 0;
          std::size_t off = conn->write_off;
          for (const PendingReply& slot : conn->pending) {
            if (!slot.done || cnt + 2 > kMaxIov) break;
            if (off < kFrameHeaderBytes) {
              iov[cnt].iov_base =
                  const_cast<char*>(slot.header) + off;
              iov[cnt].iov_len = kFrameHeaderBytes - off;
              ++cnt;
              off = kFrameHeaderBytes;
            }
            const std::size_t body_off = off - kFrameHeaderBytes;
            if (body_off < slot.body.size()) {
              iov[cnt].iov_base =
                  const_cast<char*>(slot.body.data()) + body_off;
              iov[cnt].iov_len = slot.body.size() - body_off;
              ++cnt;
            }
            off = 0;
          }
          if (cnt == 0) break;
          std::size_t built = 0;
          for (int i = 0; i < cnt; ++i) built += iov[i].iov_len;
          // sendmsg with MSG_NOSIGNAL: a client that disconnected with
          // replies pending must surface as EPIPE here, not SIGPIPE the
          // whole process.
          msghdr msg{};
          msg.msg_iov = iov;
          msg.msg_iovlen = static_cast<std::size_t>(cnt);
          const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
          if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
              blocked = true;
              break;
            }
            peer_dead = true;
            break;
          }
          std::size_t advanced = static_cast<std::size_t>(n);
          conn->outbound_bytes -= advanced;
          loop.g_outbound->Add(-static_cast<std::int64_t>(advanced));
          while (advanced > 0) {
            PendingReply& front = conn->pending.front();
            const std::size_t remaining =
                kFrameHeaderBytes + front.body.size() - conn->write_off;
            if (advanced >= remaining) {
              advanced -= remaining;
              conn->write_off = 0;
              conn->pending.pop_front();
            } else {
              conn->write_off += advanced;
              advanced = 0;
            }
          }
          if (static_cast<std::size_t>(n) < built) {
            blocked = true;
            break;
          }
        }
        if (peer_dead) {
          do_close = true;
        } else {
          conn->want_write = blocked;
          if (conn->paused && !conn->read_done &&
              conn->pending.size() < options.max_outstanding &&
              conn->outbound_bytes < options.pause_outbound_bytes) {
            conn->paused = false;
          }
          if (conn->read_done && conn->inflight == 0 &&
              conn->pending.empty()) {
            do_close = true;
          }
        }
      }
    }
    if (hangup) {
      c_hangups->Add();
      CloseConn(loop, conn);
      return;
    }
    if (do_close) {
      CloseConn(loop, conn);
      return;
    }
    UpdateInterest(loop, conn.get());
  }

  /// Detaches the connection from its loop and closes the fd. Loop
  /// thread only; safe to call once per connection (later stale events
  /// in the same batch are screened by closed_in_batch).
  void CloseConn(Loop& loop, const std::shared_ptr<Conn>& conn) {
    std::size_t leftover = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->dead) return;
      conn->dead = true;
      leftover = conn->outbound_bytes;
      conn->outbound_bytes = 0;
    }
    if (leftover != 0) {
      loop.g_outbound->Add(-static_cast<std::int64_t>(leftover));
    }
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    loop.conns.erase(conn->fd);
    loop.closed_in_batch.insert(conn.get());
    loop.graveyard.push_back(conn);
    loop.g_conns->Add(-1);
    open_conns.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lock(drain_mu);
    }
    drain_cv.notify_all();
  }

  // --------------------------------------------------------- dispatch

  void Submit(std::shared_ptr<Conn> conn, PendingReply* slot, Frame frame) {
    {
      std::lock_guard<std::mutex> lock(work_mu);
      if (work_stop) return;
      work.push_back([this, conn = std::move(conn), slot,
                      frame = std::move(frame)]() mutable {
        RunRequest(std::move(conn), slot, std::move(frame));
      });
    }
    work_cv.notify_one();
  }

  void WorkerMain() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(work_mu);
        work_cv.wait(lock, [this] { return work_stop || !work.empty(); });
        if (work_stop) return;
        task = std::move(work.front());
        work.pop_front();
      }
      task();
    }
  }

  void RunRequest(std::shared_ptr<Conn> conn, PendingReply* slot,
                  Frame frame) {
    Loop& loop = *loops[conn->loop];
    Complete(loop, *conn, slot,
             DispatchRequest(router, frame.header.opcode, frame.body));
    {
      std::lock_guard<std::mutex> lock(loop.inbox_mu);
      loop.completions.push_back(std::move(conn));
    }
    Wake(loop);
  }

  /// Fills `slot` with `reply` and books its bytes against the outbound
  /// caps. Any thread; the loop writes the slot once it is in the done
  /// prefix.
  void Complete(Loop& loop, Conn& conn, PendingReply* slot,
                ReplyFrame reply) {
    std::lock_guard<std::mutex> lock(conn.mu);
    slot->body = std::move(reply.body);
    if (!EncodeFrameHeader(reply.opcode, reply.status,
                           static_cast<std::uint32_t>(slot->body.size()),
                           slot->header)) {
      // A reply body over kMaxBodyBytes cannot be framed (possible only
      // for a pathological stats snapshot); degrade to an error reply
      // rather than emit an unparseable frame.
      slot->body.clear();
      EncodeErrorBody("reply exceeds frame limit", &slot->body);
      EncodeFrameHeader(Opcode::kError,
                        static_cast<std::uint8_t>(Status::kInternal),
                        static_cast<std::uint32_t>(slot->body.size()),
                        slot->header);
    }
    slot->done = true;
    --conn.inflight;
    if (!conn.dead) {
      const std::size_t sz = kFrameHeaderBytes + slot->body.size();
      conn.outbound_bytes += sz;
      loop.g_outbound->Add(static_cast<std::int64_t>(sz));
      if (options.max_outbound_bytes != 0 &&
          conn.outbound_bytes > options.max_outbound_bytes) {
        conn.overflow = true;
      }
    }
  }
};

ReactorServer::ReactorServer(Router& router, ReactorOptions options)
    : impl_(std::make_unique<Impl>(router, options)) {}

ReactorServer::~ReactorServer() = default;

bool ReactorServer::Listen(std::uint16_t port) { return impl_->Listen(port); }

std::uint16_t ReactorServer::port() const { return impl_->port; }

void ReactorServer::StopAccepting() { impl_->StopAccepting(); }

void ReactorServer::WaitDrained() { impl_->WaitDrained(); }

std::size_t ReactorServer::open_connections() const {
  return impl_->open_conns.load(std::memory_order_acquire);
}

std::uint64_t ReactorServer::accepted_total() const {
  return impl_->accepted.load(std::memory_order_relaxed);
}

std::uint64_t ReactorServer::rejected_total() const {
  return impl_->rejected.load(std::memory_order_relaxed);
}

}  // namespace ifsketch::serve

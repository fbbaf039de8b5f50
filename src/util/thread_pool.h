// A small fixed-size thread pool driving chunked parallel-for loops.
//
// The batched query kernels (ColumnStore::SupportCounts, the estimator
// EstimateMany overrides, Engine::estimate_many) fan a batch of
// independent queries out across threads. The contract that makes this
// safe to expose at the library surface:
//
//   * Determinism. ParallelFor partitions [begin, end) into contiguous
//     chunks and each index writes only its own result slot, so answers
//     are bit-identical to the serial loop regardless of thread count or
//     scheduling. No reductions cross chunk boundaries.
//   * Caller participation. The calling thread executes chunks alongside
//     the workers, so ParallelFor never deadlocks even when every worker
//     is busy with someone else's job (including nested or concurrent
//     ParallelFor calls from many user threads).
//   * Sizing. Default() lazily builds one process-wide pool sized from
//     the IFSKETCH_THREADS environment variable if set, otherwise
//     std::thread::hardware_concurrency(). SetDefaultThreadCount(t)
//     re-sizes it; call it from configuration code (CLI flags, bench
//     sweeps) before issuing queries -- it must not race with in-flight
//     ParallelFor calls on the default pool.
//
// A pool of size 1 (or a range no larger than one grain) degenerates to
// running the body inline on the caller, so single-threaded builds pay
// nothing but a branch. ParallelFor is a template so that inline path
// calls the body directly, with no type erasure: no std::function is
// built and nothing is allocated. Only a loop that really splits erases
// the body, to a pointer and a trampoline, for its pool threads.
#ifndef IFSKETCH_UTIL_THREAD_POOL_H_
#define IFSKETCH_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ifsketch::util {

/// Fixed-size worker pool with a chunked, deterministic ParallelFor.
class ThreadPool {
 public:
  /// Creates a pool that runs loops on `threads` threads total (the
  /// caller counts as one; `threads - 1` workers are spawned). `threads`
  /// is clamped to at least 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads a loop may use, caller included.
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Invokes body(first, last) over contiguous sub-ranges that exactly
  /// cover [begin, end), each at least `grain` indices (except possibly
  /// the final chunk). Blocks until every chunk has run. The body must
  /// only write state owned by its own indices.
  template <typename Body>
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   Body&& body) {
    if (end <= begin) return;
    if (thread_count() == 1 ||
        end - begin <= std::max<std::size_t>(grain, 1)) {
      body(begin, end);
      return;
    }
    using Fn = std::remove_reference_t<Body>;
    RunChunks(begin, end, grain,
              const_cast<void*>(static_cast<const void*>(&body)),
              [](void* fn, std::size_t first, std::size_t last) {
                (*static_cast<Fn*>(fn))(first, last);
              });
  }

  /// The process-wide pool used by the batched query kernels.
  static ThreadPool& Default();

  /// Re-sizes the default pool to `threads` (0 = auto: IFSKETCH_THREADS
  /// env var, else hardware concurrency). Configuration-time only: must
  /// not race with queries using the default pool.
  static void SetDefaultThreadCount(std::size_t threads);

  /// The thread count Default() currently runs with.
  static std::size_t DefaultThreadCount();

 private:
  // The type-erased split behind ParallelFor, for ranges larger than one
  // grain on a pool of two or more threads.
  void RunChunks(std::size_t begin, std::size_t end, std::size_t grain,
                 void* body,
                 void (*call)(void* body, std::size_t first, std::size_t last));

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_THREAD_POOL_H_

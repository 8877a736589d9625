#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/annotations.h"
#include "util/deadline.h"
#include "util/metrics.h"

namespace autoview {

/// \brief Fixed-size FIFO thread pool (no work stealing).
///
/// The pool backs the embarrassingly parallel hot paths of the system:
/// batched Wide-Deep inference over the
/// benefit matrix, and subquery extraction / overlap detection. Every
/// caller is required to produce results that are bit-identical to a
/// sequential run, so the pool deliberately offers only order-free
/// primitives: tasks write to disjoint output slots and all reductions
/// happen on the calling thread in index order.
///
/// Nested use is safe by construction: Submit() and ParallelFor() called
/// from inside a pool worker execute inline on that worker instead of
/// enqueueing, so a task that blocks on work it spawned can never
/// deadlock the (fixed) worker set.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return threads_.size(); }

  /// Schedules `fn` and returns a future for its result. Exceptions
  /// thrown by `fn` are captured and rethrown from future::get().
  /// Called from a pool worker, runs inline (see class comment).
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (InWorker() || size() == 0) {
      (*task)();
    } else {
      Enqueue([task] { (*task)(); });
    }
    return future;
  }

  /// Runs `fn(i)` for every i in [begin, end), blocking until all
  /// scheduled indices completed. Indices are chunked into contiguous
  /// ranges of at least `grain` each; the order in which chunks execute
  /// is unspecified, so `fn` must only touch per-index state (e.g. slot
  /// i of a preallocated output vector).
  ///
  /// If any invocation throws, remaining *queued* chunks are cancelled
  /// (they never run) and the exception of the lowest-index chunk that
  /// actually ran and failed is rethrown; chunks already executing
  /// finish normally.
  ///
  /// `cancel`, when given, is polled before each chunk (and between
  /// indices on the inline path): once cancelled, remaining indices are
  /// skipped without error. Callers that pass a token must therefore
  /// tolerate partially-filled outputs.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn, size_t grain = 1,
                   const CancellationToken* cancel = nullptr);

  /// Per-pool execution counters (see PoolCounters).
  const PoolCounters& counters() const { return counters_; }

  /// True when the calling thread is a worker of *any* ThreadPool.
  static bool InWorker();

 private:
  void Enqueue(std::function<void()> task) AV_EXCLUDES(mu_);
  void WorkerLoop() AV_EXCLUDES(mu_);

  std::vector<std::thread> threads_;
  Mutex mu_;
  std::deque<std::function<void()>> queue_ AV_GUARDED_BY(mu_);
  bool stop_ AV_GUARDED_BY(mu_) = false;
  CondVar cv_;
  PoolCounters counters_;  // internally atomic; see PoolCounters
};

/// Largest AUTOVIEW_THREADS value DefaultThreadCount() accepts.
constexpr size_t kMaxThreadCount = 1024;

/// Number of threads the default pool uses: AUTOVIEW_THREADS when it is
/// an integer in [1, kMaxThreadCount], else (with a warning if it is set)
/// std::thread::hardware_concurrency(), at least 1.
size_t DefaultThreadCount();

/// Lazily constructed process-wide pool of DefaultThreadCount() workers.
ThreadPool& DefaultPool();

}  // namespace autoview

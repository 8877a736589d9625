#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/logging.h"
#include "util/parse.h"

namespace autoview {

namespace {

/// Set for the lifetime of a worker thread; lets nested Submit /
/// ParallelFor calls detect that they are already on a pool worker.
thread_local bool tls_in_worker = false;

}  // namespace

bool ThreadPool::InWorker() { return tls_in_worker; }

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  size_t depth;
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  counters_.RecordQueueDepth(depth);
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Predicate inlined (not a wait-lambda) so the thread-safety
      // analysis sees the guarded reads under the held lock.
      // avcheck:allow(blocking-under-lock): CondVar::Wait atomically
      // releases mu_ while sleeping — this is the idle-worker park, not
      // work done under the lock.
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto start = std::chrono::steady_clock::now();
    task();  // packaged_task: exceptions land in the paired future
    const auto elapsed = std::chrono::steady_clock::now() - start;
    counters_.RecordTask(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             size_t grain, const CancellationToken* cancel) {
  if (begin >= end) return;
  const size_t range = end - begin;
  grain = std::max<size_t>(1, grain);

  // Inline when parallelism cannot help (single worker, tiny range) or
  // must not be used (already on a worker; see class comment).
  if (InWorker() || size() <= 1 || range <= grain) {
    for (size_t i = begin; i < end; ++i) {
      if (cancel && cancel->Cancelled()) return;
      fn(i);
    }
    return;
  }

  // Oversubscribe chunks 4x relative to workers so uneven per-index
  // costs still balance, subject to the `grain` floor.
  const size_t target_chunks = std::min(range, size() * 4);
  const size_t chunk = std::max(grain, (range + target_chunks - 1) / target_chunks);

  // Shared by all chunks of this call: tripped by the first throwing
  // chunk so queued-but-unstarted chunks skip instead of running to
  // completion behind a failure.
  CancellationToken failed;
  std::vector<std::future<void>> futures;
  futures.reserve((range + chunk - 1) / chunk);
  for (size_t lo = begin; lo < end; lo += chunk) {
    const size_t hi = std::min(end, lo + chunk);
    futures.push_back(Submit([&fn, lo, hi, failed, cancel] {
      if (failed.Cancelled() || (cancel && cancel->Cancelled())) return;
      try {
        for (size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        failed.RequestCancel();
        throw;  // lands in the chunk's future
      }
    }));
  }
  // Waiting in chunk order makes the rethrown exception (if any) the one
  // from the lowest-index chunk that ran and failed, independent of
  // scheduling; chunks cancelled by an earlier failure resolve cleanly.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("AUTOVIEW_THREADS")) {
    size_t parsed = 0;
    if (ParseSize(env, &parsed).ok() && parsed > 0 &&
        parsed <= kMaxThreadCount) {
      return parsed;
    }
    AV_LOG(Warning) << "ignoring AUTOVIEW_THREADS=" << env << " (not in 1.."
                    << kMaxThreadCount << "); using hardware concurrency";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

ThreadPool& DefaultPool() {
  static ThreadPool pool(DefaultThreadCount());
  return pool;
}

}  // namespace autoview

// ThreadPool unit tests: lifecycle, futures, exception propagation,
// ParallelFor index coverage, nested submission, and counters.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace autoview {
namespace {

TEST(ThreadPoolTest, ConstructAndShutdownIdle) {
  // Pools of several sizes must come up and tear down without any work.
  for (size_t n : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.size(), n);
  }
}

TEST(ThreadPoolTest, SizeClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor must wait for all 64
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(3);
  auto f1 = pool.Submit([] { return 40 + 2; });
  auto f2 = pool.Submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool must stay usable after a task threw.
  EXPECT_EQ(pool.Submit([] { return 5; }).get(), 5);
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 100,
                                [](size_t i) {
                                  if (i == 37) throw std::logic_error("bad");
                                }),
               std::logic_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(0, n, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPoolTest, ParallelForRespectsBeginOffsetAndGrain) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(50);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(10, 50, [&hits](size_t i) { hits[i].fetch_add(1); },
                   /*grain=*/8);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(hits[i].load(), i >= 10 ? 1 : 0) << "index " << i;
  }
}

TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlock) {
  // A task that blocks on work it spawned must not starve: nested
  // Submit runs inline on the worker, so this completes even with one
  // worker thread.
  ThreadPool pool(1);
  auto outer = pool.Submit([&pool] {
    auto inner = pool.Submit([&pool] {
      return pool.Submit([] { return 1; }).get() + 1;
    });
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 3);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 8, [&](size_t) {
    pool.ParallelFor(0, 8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, CountersObserveWork) {
  ThreadPool pool(2);
  pool.ParallelFor(0, 256, [](size_t) {});
  const PoolCounters::Snapshot snap = pool.counters().Read();
  EXPECT_GT(snap.tasks_run, 0u);
  EXPECT_GT(snap.max_queue_depth, 0u);
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvOverride) {
  // setenv/getenv in a single-threaded test body is safe here.
  ASSERT_EQ(setenv("AUTOVIEW_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(DefaultThreadCount(), 3u);
  ASSERT_EQ(unsetenv("AUTOVIEW_THREADS"), 0);
  const size_t hardware = DefaultThreadCount();
  EXPECT_GE(hardware, 1u);
  const std::string cap = std::to_string(kMaxThreadCount);
  ASSERT_EQ(setenv("AUTOVIEW_THREADS", cap.c_str(), 1), 0);
  EXPECT_EQ(DefaultThreadCount(), kMaxThreadCount);
  // Everything else falls back to the hardware count. Only the count is
  // read here: no pool is ever built at these values.
  const std::string above_cap = std::to_string(kMaxThreadCount + 1);
  for (const char* bad :
       {"not-a-number", "99999999999999999999", "100000", above_cap.c_str(),
        "0", "-3", "3x", ""}) {
    ASSERT_EQ(setenv("AUTOVIEW_THREADS", bad, 1), 0);
    EXPECT_EQ(DefaultThreadCount(), hardware) << bad;
  }
  ASSERT_EQ(unsetenv("AUTOVIEW_THREADS"), 0);
}

}  // namespace
}  // namespace autoview

#include "util/deadline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "generators.h"
#include "ilp/problem.h"
#include "select/iterview.h"
#include "select/rlview.h"
#include "selection_oracle.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace autoview {
namespace {

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.Remaining(), std::chrono::nanoseconds::max());
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  EXPECT_TRUE(Deadline::After(std::chrono::nanoseconds(0)).Expired());
  EXPECT_TRUE(Deadline::AfterMillis(0.0).Expired());
  EXPECT_EQ(Deadline::AfterMillis(0.0).Remaining(),
            std::chrono::nanoseconds(0));
}

TEST(DeadlineTest, FutureBudgetNotYetExpired) {
  Deadline d = Deadline::AfterMillis(60'000.0);
  EXPECT_FALSE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.Remaining(), std::chrono::nanoseconds(0));
}

TEST(CancellationTokenTest, CopiesShareTheFlag) {
  CancellationToken a;
  CancellationToken b = a;
  EXPECT_FALSE(b.Cancelled());
  a.RequestCancel();
  EXPECT_TRUE(a.Cancelled());
  EXPECT_TRUE(b.Cancelled());
  // A fresh token owns a fresh flag.
  CancellationToken c;
  EXPECT_FALSE(c.Cancelled());
  EXPECT_TRUE(StopRequested(Deadline(), a));
  EXPECT_FALSE(StopRequested(Deadline(), c));
}

TEST(ParallelForCancelTest, ThrownChunkCancelsQueuedChunks) {
  ThreadPool pool(2);
  constexpr size_t kIndices = 1000;
  std::atomic<bool> poisoned{false};
  std::atomic<size_t> executed{0};
  EXPECT_THROW(
      pool.ParallelFor(0, kIndices, [&](size_t i) {
        if (i == 0) {
          poisoned.store(true);
          throw std::runtime_error("chunk failure");
        }
        // Park until the poison chunk has thrown, so chunks queued
        // behind the two workers observe the internal cancel token.
        while (!poisoned.load()) std::this_thread::yield();
        executed.fetch_add(1);
      }),
      std::runtime_error);
  // The two in-flight chunks may finish, but the rest must be skipped.
  EXPECT_LT(executed.load(), kIndices - 1);
}

TEST(ParallelForCancelTest, PreCancelledTokenSkipsAllWork) {
  ThreadPool pool(2);
  CancellationToken cancel;
  cancel.RequestCancel();
  std::atomic<size_t> executed{0};
  pool.ParallelFor(0, 64, [&](size_t) { executed.fetch_add(1); }, 1, &cancel);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ParallelForCancelTest, TokenCancelsMidFlight) {
  ThreadPool pool(2);
  CancellationToken cancel;
  std::atomic<size_t> executed{0};
  pool.ParallelFor(
      0, 1000,
      [&](size_t) {
        executed.fetch_add(1);
        cancel.RequestCancel();
      },
      1, &cancel);
  EXPECT_LT(executed.load(), 1000u);
}

TEST(AnytimeSelectionTest, IterViewUnderTightDeadlineStaysFeasible) {
  const MvsProblem problem = testing::RandomProblem(40, 30, 11);
  GlobalRobustness().Reset();

  IterViewSelector::Options options;
  options.iterations = 200'000;  // far more than 1ms allows
  options.seed = 7;
  options.deadline = Deadline::AfterMillis(1.0);
  IterViewSelector selector(options);
  auto r = selector.Select(problem);
  ASSERT_TRUE(r.ok());
  const MvsSolution& s = r.value();
  EXPECT_TRUE(s.timed_out);
  EXPECT_TRUE(IsFeasible(problem, s.z, s.y));
  // Anytime guarantee: never worse than materializing nothing.
  EXPECT_GE(s.utility, 0.0);
  EXPECT_GE(GlobalRobustness().Read().selection_timeouts, 1u);
}

TEST(AnytimeSelectionTest, TightDeadlineStaysFeasibleOnOracleAndLibrary) {
  // Under a wall-clock budget both the dense oracle and the library poll
  // at the same per-iteration point and return a feasible, non-negative
  // incumbent. (The runs are not comparable to each other here —
  // wall-clock expiry is nondeterministic; bit-equivalence under
  // *deterministic* expiry is covered in problem_index_test.cc.)
  const MvsProblem problem = testing::RandomSparseProblem(50, 200, 13, 0.05);
  for (const bool dense : {true, false}) {
    IterViewSelector::Options options;
    options.iterations = 200'000;  // far more than 1ms allows
    options.seed = 7;
    options.deadline = Deadline::AfterMillis(1.0);
    auto r = dense ? testing::OracleIterView(options).Select(problem)
                   : IterViewSelector(options).Select(problem);
    ASSERT_TRUE(r.ok());
    const MvsSolution& s = r.value();
    EXPECT_TRUE(s.timed_out);
    EXPECT_TRUE(IsFeasible(problem, s.z, s.y));
    EXPECT_GE(s.utility, 0.0);
  }
}

TEST(AnytimeSelectionTest, NoDeadlineRunDominatesDeadlineRun) {
  const MvsProblem problem = testing::RandomProblem(30, 24, 13);

  IterViewSelector::Options limited;
  limited.iterations = 200'000;
  limited.seed = 5;
  limited.deadline = Deadline::AfterMillis(1.0);
  auto budget_run = IterViewSelector(limited).Select(problem);
  ASSERT_TRUE(budget_run.ok());

  IterViewSelector::Options full;
  full.iterations = 5000;  // more than 1ms of search on any machine
  full.seed = 5;
  auto full_run = IterViewSelector(full).Select(problem);
  ASSERT_TRUE(full_run.ok());
  EXPECT_FALSE(full_run.value().timed_out);
  // The search keeps a best-so-far incumbent, so more budget with the
  // same seed can only improve (or match) the utility.
  EXPECT_GE(full_run.value().utility, budget_run.value().utility);
}

TEST(AnytimeSelectionTest, CancelledSelectorReturnsImmediately) {
  const MvsProblem problem = testing::RandomProblem(30, 24, 17);
  IterViewSelector::Options options;
  options.iterations = 1'000'000;
  options.cancel.RequestCancel();
  auto r = IterViewSelector(options).Select(problem);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().timed_out);
  EXPECT_TRUE(IsFeasible(problem, r.value().z, r.value().y));
  EXPECT_GE(r.value().utility, 0.0);
}

TEST(AnytimeSelectionTest, RLViewUnderDeadlineStaysFeasible) {
  const MvsProblem problem = testing::RandomProblem(20, 16, 19);
  RLViewSelector::Options options;
  options.init_iterations = 5;
  options.episodes = 100'000;
  options.seed = 3;
  options.deadline = Deadline::AfterMillis(5.0);
  auto r = RLViewSelector(options).Select(problem);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().timed_out);
  EXPECT_TRUE(IsFeasible(problem, r.value().z, r.value().y));
  EXPECT_GE(r.value().utility, 0.0);
}

TEST(AnytimeSelectionTest, InfiniteDeadlineMatchesDefaultBitForBit) {
  const MvsProblem problem = testing::RandomProblem(25, 20, 23);
  IterViewSelector::Options plain;
  plain.iterations = 150;
  plain.seed = 29;
  auto a = IterViewSelector(plain).Select(problem);

  IterViewSelector::Options with_infinite = plain;
  with_infinite.deadline = Deadline::Infinite();
  auto b = IterViewSelector(with_infinite).Select(problem);

  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().utility, b.value().utility);
  EXPECT_EQ(a.value().z, b.value().z);
  EXPECT_EQ(a.value().y, b.value().y);
  EXPECT_FALSE(a.value().timed_out);
  EXPECT_FALSE(b.value().timed_out);
}

}  // namespace
}  // namespace autoview

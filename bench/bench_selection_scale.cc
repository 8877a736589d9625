// Selection scaling micro-benchmark (google-benchmark): IterView and
// RLView wall time on synthetic sparse MVS instances at |Q| x |Z| in
// {50x200, 200x1000, 500x4000} with ~5% nonzero benefits. Arm 0 runs the
// dense test oracle (tests/selection_oracle.h), arm 1 the library's
// index-driven selector. The two are bit-identical by contract
// (tests/problem_index_test.cc); the per-run "utility" counter makes the
// equality visible in the emitted JSON.
//
// Regenerate the checked-in numbers from a Release build with:
//   ./bench/bench_selection_scale --benchmark_repetitions=3
//       --benchmark_out=../BENCH_selection.json --benchmark_out_format=json
// The JSON context records the autoview build type and source commit.
// Every run is one single-threaded trial, so the reported speedups are
// algorithmic, not parallelism.

#include <benchmark/benchmark.h>

#include "select/iterview.h"
#include "select/rlview.h"
#include "selection_oracle.h"
#include "util/logging.h"
#include "util/random.h"

namespace autoview {
namespace {

/// ~5% sparse instance generator with cheap views (a variant of
/// tests/generators.h RandomSparseProblem).
MvsProblem SparseProblem(size_t nq, size_t nz, uint64_t seed,
                         double density = 0.05) {
  Rng rng(seed);
  MvsProblem p;
  p.overhead.resize(nz);
  p.frequency.assign(nz, 0);
  // Cheap views relative to benefits so the optimum is non-empty and the
  // reported "utility" counter carries real bit-identity signal (equal
  // positive utilities) instead of both engines trivially returning the
  // empty incumbent.
  for (auto& o : p.overhead) o = rng.Uniform(0.2, 1.0);
  p.benefit.assign(nq, std::vector<double>(nz, 0.0));
  for (auto& row : p.benefit) {
    for (size_t j = 0; j < nz; ++j) {
      if (!rng.Bernoulli(density)) continue;
      row[j] = rng.Uniform(0.1, 3.0);
      ++p.frequency[j];
    }
  }
  p.overlap.assign(nz, std::vector<bool>(nz, false));
  for (size_t j = 0; j < nz; ++j) {
    for (size_t k = j + 1; k < nz; ++k) {
      if (rng.Bernoulli(0.05)) p.overlap[j][k] = p.overlap[k][j] = true;
    }
  }
  return p;
}

/// Arg 2: 0 = the dense oracle, 1 = the library.
bool OracleArm(const benchmark::State& state) { return state.range(2) == 0; }

IterViewSelector::Options IterOptions() {
  IterViewSelector::Options options;
  options.iterations = 12;
  options.seed = 42;
  return options;
}

Result<MvsSolution> RunIterView(const benchmark::State& state,
                                const MvsProblem& problem) {
  if (OracleArm(state)) {
    return testing::OracleIterView(IterOptions()).Select(problem);
  }
  return IterViewSelector(IterOptions()).Select(problem);
}

void BM_IterViewSelect(benchmark::State& state) {
  const size_t nq = static_cast<size_t>(state.range(0));
  const size_t nz = static_cast<size_t>(state.range(1));
  const MvsProblem problem = SparseProblem(nq, nz, /*seed=*/1234);
  for (auto _ : state) {
    auto result = RunIterView(state, problem);
    AV_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().utility);
  }
  // Bit-identical across arms for a given shape (compare in JSON).
  // Computed outside the timing loop: the harness re-invokes this
  // function with zero loop iterations when assembling results, so a
  // counter fed from a loop-local would report the stale initializer.
  auto check = RunIterView(state, problem);
  AV_CHECK(check.ok());
  state.counters["utility"] = check.value().utility;
}

RLViewSelector::Options RlOptions() {
  RLViewSelector::Options options;
  options.seed = 42;
  options.init_iterations = 3;
  options.episodes = 1;
  options.max_steps_per_episode = 8;
  return options;
}

Result<MvsSolution> RunRLView(const benchmark::State& state,
                              const MvsProblem& problem) {
  if (OracleArm(state)) {
    return testing::OracleRLView(RlOptions()).Select(problem);
  }
  return RLViewSelector(RlOptions()).Select(problem);
}

void BM_RLViewSelect(benchmark::State& state) {
  const size_t nq = static_cast<size_t>(state.range(0));
  const size_t nz = static_cast<size_t>(state.range(1));
  const MvsProblem problem = SparseProblem(nq, nz, /*seed=*/1234);
  for (auto _ : state) {
    auto result = RunRLView(state, problem);
    AV_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().utility);
  }
  // See BM_IterViewSelect for why this runs outside the timing loop.
  auto check = RunRLView(state, problem);
  AV_CHECK(check.ok());
  state.counters["utility"] = check.value().utility;
}

// Args: {num_queries, num_views, arm} with arm 0 = dense test oracle,
// 1 = library.
#define SELECTION_SHAPES(bench)                                        \
  BENCHMARK(bench)                                                     \
      ->Unit(benchmark::kMillisecond)                                  \
      ->Args({50, 200, 0})                                             \
      ->Args({50, 200, 1})                                             \
      ->Args({200, 1000, 0})                                           \
      ->Args({200, 1000, 1})                                           \
      ->Args({500, 4000, 0})                                           \
      ->Args({500, 4000, 1})

SELECTION_SHAPES(BM_IterViewSelect);
SELECTION_SHAPES(BM_RLViewSelect);

}  // namespace
}  // namespace autoview

int main(int argc, char** argv) {
  benchmark::AddCustomContext("autoview_build_type", AUTOVIEW_BUILD_TYPE);
  benchmark::AddCustomContext("autoview_commit", AUTOVIEW_COMMIT);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Tests for the throughput load generator (src/bench/loadgen.*).
//
// The deterministic properties under test: (1) LoadGenConfig round-trips
// exactly through ToArgs + ParseLoadGenArgs; (2) nearest-rank
// percentiles match hand-computed fixtures; (3) the request schedule —
// and a scheduled run's latency *count* — depend only on the config,
// never on the executing thread count; (4) the CSV/JSON writers emit
// byte-stable output (golden strings).

#include "bench/loadgen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/thread_pool.h"

namespace autoview {
namespace {

// ---------------------------------------------------------------------
// Config parsing.

TEST(LoadGenConfigTest, DefaultsRoundTrip) {
  const LoadGenConfig config;
  const auto parsed = ParseLoadGenArgs(ToArgs(config));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == config);
}

TEST(LoadGenConfigTest, EveryFieldRoundTrips) {
  LoadGenConfig config;
  config.clients = 3;
  config.warmup_s = 0.25;
  config.measure_s = 1.75;
  config.seed = 987654321;
  config.workload = "WK2";
  config.scale = 0.125;
  config.full = true;
  config.max_requests = 17;
  config.select_iterations = 11;
  config.select_timeout_s = 2.5;
  config.view_budget_bytes = 8192;
  config.drift = "shift";
  config.online = true;
  config.advisor_epoch = 9;
  config.csv_file = "out.csv";
  config.json_file = "out.json";
  const auto parsed = ParseLoadGenArgs(ToArgs(config));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == config);
}

TEST(LoadGenConfigTest, ParsesIndividualFlags) {
  const auto parsed = ParseLoadGenArgs(
      {"--clients=2", "--workload=WK2", "--full", "--seed=7"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().clients, 2);
  EXPECT_EQ(parsed.value().workload, "WK2");
  EXPECT_TRUE(parsed.value().full);
  EXPECT_EQ(parsed.value().seed, 7u);
  // Untouched fields keep their defaults.
  EXPECT_EQ(parsed.value().select_iterations, LoadGenConfig().select_iterations);
}

TEST(LoadGenConfigTest, RejectsUnknownAndMalformedFlags) {
  EXPECT_FALSE(ParseLoadGenArgs({"--bogus=1"}).ok());
  EXPECT_FALSE(ParseLoadGenArgs({"clients=2"}).ok());
  EXPECT_FALSE(ParseLoadGenArgs({"--clients=abc"}).ok());
  EXPECT_FALSE(ParseLoadGenArgs({"--clients=0"}).ok());
  EXPECT_FALSE(ParseLoadGenArgs({"--workload=JOB"}).ok());
  EXPECT_FALSE(ParseLoadGenArgs({"--measure_s=fast"}).ok());
  // Strict parsing: the strtoull family accepted these silently.
  EXPECT_FALSE(ParseLoadGenArgs({"--seed=-1"}).ok());
  EXPECT_FALSE(ParseLoadGenArgs({"--max_requests=12x"}).ok());
  // Drift validation: known modes only, and only in scheduled mode.
  EXPECT_FALSE(ParseLoadGenArgs({"--drift=sideways"}).ok());
  EXPECT_FALSE(ParseLoadGenArgs({"--drift=churn"}).ok());  // no max_requests
  EXPECT_TRUE(
      ParseLoadGenArgs({"--drift=churn", "--max_requests=8"}).ok());
  EXPECT_FALSE(ParseLoadGenArgs({"--advisor_epoch=0"}).ok());
}

// ---------------------------------------------------------------------
// Percentile fixture.

TEST(PercentileTest, NearestRankFixture) {
  // Canonical nearest-rank example: N=5.
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(Percentile(v, 5), 15);
  EXPECT_EQ(Percentile(v, 30), 20);
  EXPECT_EQ(Percentile(v, 40), 20);
  EXPECT_EQ(Percentile(v, 50), 35);
  EXPECT_EQ(Percentile(v, 100), 50);
}

TEST(PercentileTest, EdgeCases) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({3.5}, 0), 3.5);
  EXPECT_EQ(Percentile({3.5}, 50), 3.5);
  EXPECT_EQ(Percentile({3.5}, 100), 3.5);
  const std::vector<double> two = {1, 2};
  EXPECT_EQ(Percentile(two, 50), 1);
  EXPECT_EQ(Percentile(two, 51), 2);
  EXPECT_EQ(Percentile(two, 99), 2);
}

// ---------------------------------------------------------------------
// Deterministic schedule.

TEST(ScheduleTest, DependsOnlyOnConfig) {
  const auto a = BuildSchedule(/*seed=*/42, /*clients=*/4, /*per_client=*/32,
                               /*num_queries=*/100);
  const auto b = BuildSchedule(42, 4, 32, 100);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 4u);
  for (const auto& client : a) {
    ASSERT_EQ(client.size(), 32u);
    for (size_t qi : client) EXPECT_LT(qi, 100u);
  }
  // Distinct seeds and distinct client streams give distinct schedules.
  EXPECT_NE(a, BuildSchedule(43, 4, 32, 100));
  EXPECT_NE(a[0], a[1]);
}

TEST(ScheduleTest, DriftModesAreDeterministicAndInRange) {
  for (const std::string drift : {"churn", "shift", "adhoc"}) {
    const auto a = BuildSchedule(42, 4, 32, 100, drift);
    EXPECT_EQ(a, BuildSchedule(42, 4, 32, 100, drift)) << drift;
    ASSERT_EQ(a.size(), 4u);
    for (const auto& client : a) {
      ASSERT_EQ(client.size(), 32u);
      for (size_t qi : client) EXPECT_LT(qi, 100u) << drift;
    }
    // Drift reshapes the request mix relative to the stationary draw.
    EXPECT_NE(a, BuildSchedule(42, 4, 32, 100)) << drift;
  }
}

TEST(ScheduleTest, ChurnRotatesThroughQuarters) {
  // One client, 64 requests over 100 queries: requests [p*16, (p+1)*16)
  // must come from quarter p of the query space.
  const auto schedule = BuildSchedule(9, 1, 64, 100, "churn");
  ASSERT_EQ(schedule.size(), 1u);
  ASSERT_EQ(schedule[0].size(), 64u);
  for (size_t n = 0; n < 64; ++n) {
    const size_t phase = std::min<size_t>(3, 4 * n / 64);
    EXPECT_GE(schedule[0][n], phase * 100 / 4) << n;
    EXPECT_LT(schedule[0][n], (phase + 1) * 100 / 4) << n;
  }
}

TEST(ScheduleTest, MultisetStableAcrossThreadCounts) {
  // The schedule is precomputed; executing it on 1 thread or N threads
  // must touch the same multiset of queries. Simulate both executions
  // by counting, single-threaded vs via ParallelFor.
  const auto schedule = BuildSchedule(7, 8, 64, 50);

  std::map<size_t, size_t> sequential;
  for (const auto& client : schedule) {
    for (size_t qi : client) ++sequential[qi];
  }

  ThreadPool pool(4);
  std::vector<std::map<size_t, size_t>> partial(schedule.size());
  pool.ParallelFor(0, schedule.size(), [&](size_t c) {
    for (size_t qi : schedule[c]) ++partial[c][qi];
  });
  std::map<size_t, size_t> parallel;
  for (const auto& m : partial) {
    for (const auto& [qi, n] : m) parallel[qi] += n;
  }
  EXPECT_EQ(sequential, parallel);
}

// ---------------------------------------------------------------------
// Scheduled end-to-end runs: same request count for any thread count.

TEST(LoadGenRunTest, ScheduledRunIsDeterministicInRequestCount) {
  LoadGenConfig config;
  config.workload = "WK1";
  config.scale = 0.15;
  config.max_requests = 6;  // deterministic mode
  config.select_iterations = 20;
  config.select_timeout_s = 10.0;

  config.clients = 1;
  const auto one = RunLoadGen(config);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one.value().requests, 6u);

  config.clients = 4;
  const auto four = RunLoadGen(config);
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  EXPECT_EQ(four.value().requests, 24u);

  // Pipeline-shape fields do not depend on the client count.
  EXPECT_EQ(one.value().num_queries, four.value().num_queries);
  EXPECT_EQ(one.value().num_candidates, four.value().num_candidates);
  EXPECT_EQ(one.value().num_selected, four.value().num_selected);
  EXPECT_EQ(one.value().select_utility, four.value().select_utility);
  EXPECT_EQ(one.value().csr_bytes, four.value().csr_bytes);
}

TEST(LoadGenRunTest, BudgetedStoreServesEveryRequestWithinBudget) {
  LoadGenConfig config;
  config.workload = "WK1";
  config.scale = 0.15;
  config.max_requests = 6;
  config.select_iterations = 20;
  config.select_timeout_s = 10.0;
  config.clients = 2;
  config.view_budget_bytes = 1;  // nothing fits: every view is rejected

  const auto run = RunLoadGen(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // The store respected the budget and every query still succeeded
  // (evicted/rejected views degrade to base-table serving).
  EXPECT_LE(run.value().store_bytes, config.view_budget_bytes);
  EXPECT_EQ(run.value().store_views, 0u);
  EXPECT_EQ(run.value().failed_requests, 0u);
  EXPECT_EQ(run.value().requests, 12u);
}

TEST(LoadGenRunTest, OnlineModeReselectsAndSwapsWhileServing) {
  LoadGenConfig config;
  config.workload = "WK1";
  config.scale = 0.15;
  config.max_requests = 8;
  config.clients = 2;
  config.select_iterations = 15;
  config.select_timeout_s = 10.0;
  config.online = true;
  config.advisor_epoch = 4;
  config.drift = "churn";

  const auto run = RunLoadGen(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const LoadGenResult& r = run.value();
  EXPECT_TRUE(r.online);
  EXPECT_EQ(r.drift, "churn");
  EXPECT_EQ(r.requests, 16u);
  EXPECT_EQ(r.failed_requests, 0u);
  // Every request was ingested; 16 ingests at epoch 4 re-select and
  // hot-swap at least once while the clients keep serving from pins.
  EXPECT_EQ(r.ingested, 16u);
  EXPECT_GT(r.reselections, 0u);
  EXPECT_EQ(r.swaps_committed, r.reselections);
}

TEST(LoadGenRunTest, ConsultsRewriteCacheAndBreaksDownPhases) {
  LoadGenConfig config;
  config.workload = "WK1";
  config.scale = 0.15;
  config.max_requests = 6;
  config.clients = 2;
  config.select_iterations = 20;
  config.select_timeout_s = 10.0;
  const auto result = RunLoadGen(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const LoadGenResult& r = result.value();
  EXPECT_EQ(r.requests, 12u);
  EXPECT_EQ(r.failed_requests, 0u);

  // Serving consulted the rewrite cache once per request.
  EXPECT_EQ(r.rewrite_cache_hits + r.rewrite_cache_misses, 12u);
  EXPECT_GT(r.rewrite_cache_hits, 0u);

  // Phase breakdown covers the same requests as the end-to-end numbers.
  EXPECT_GT(r.execute_p50_ms, 0.0);
  EXPECT_LE(r.parse_p50_ms, r.parse_p99_ms);
  EXPECT_LE(r.rewrite_p50_ms, r.rewrite_p99_ms);
  EXPECT_LE(r.execute_p50_ms, r.execute_p99_ms);
  EXPECT_LE(r.parse_p99_ms + r.rewrite_p99_ms + r.execute_p99_ms,
            3 * r.p99_ms + 1.0);
}

// ---------------------------------------------------------------------
// Golden CSV/JSON.

LoadGenResult FixtureResult() {
  LoadGenResult r;
  r.workload = "WK1";
  r.mode = "scaled";
  r.num_queries = 48;
  r.num_tables = 24;
  r.num_candidates = 6;
  r.num_selected = 3;
  r.clients = 4;
  r.seed = 12345;
  r.requests = 80;
  r.elapsed_s = 0.0625;
  r.qps = 1280.0;
  r.p50_ms = 0.5;
  r.p95_ms = 1.25;
  r.p99_ms = 2.5;
  r.mean_ms = 0.625;
  r.csr_shards = 2;
  r.csr_bytes = 150;
  r.peak_rss_mb = 10.5;
  r.select_utility = 0.0625;
  r.select_timed_out = false;
  r.view_budget_bytes = 65536;
  r.store_bytes = 4096;
  r.store_views = 3;
  r.evictions = 2;
  r.rewrite_fallbacks = 1;
  r.failed_requests = 0;
  r.drift = "churn";
  r.online = true;
  r.ingested = 80;
  r.reselections = 5;
  r.swaps_committed = 5;
  r.parse_p50_ms = 0.125;
  r.parse_p95_ms = 0.25;
  r.parse_p99_ms = 0.375;
  r.rewrite_p50_ms = 0.0625;
  r.rewrite_p95_ms = 0.125;
  r.rewrite_p99_ms = 0.1875;
  r.execute_p50_ms = 0.25;
  r.execute_p95_ms = 0.75;
  r.execute_p99_ms = 1.5;
  r.rewrite_cache_hits = 70;
  r.rewrite_cache_misses = 10;
  return r;
}

TEST(LoadGenWriterTest, GoldenJson) {
  const std::string expected =
      "{\n"
      "  \"benchmark\": \"autoview_throughput\",\n"
      "  \"results\": [\n"
      "    {\"workload\": \"WK1\", \"mode\": \"scaled\", \"queries\": 48, "
      "\"tables\": 24, \"candidates\": 6, \"selected\": 3, \"clients\": 4, "
      "\"seed\": 12345, \"requests\": 80, \"elapsed_s\": 0.062, "
      "\"qps\": 1280.00, \"p50_ms\": 0.500, \"p95_ms\": 1.250, "
      "\"p99_ms\": 2.500, \"mean_ms\": 0.625, \"csr_shards\": 2, "
      "\"csr_bytes\": 150, \"peak_rss_mb\": 10.5, "
      "\"select_utility\": 0.0625, \"select_timed_out\": false, "
      "\"view_budget_bytes\": 65536, \"store_bytes\": 4096, "
      "\"store_views\": 3, \"evictions\": 2, "
      "\"rewrite_fallbacks\": 1, \"failed_requests\": 0, "
      "\"drift\": \"churn\", \"online\": true, \"ingested\": 80, "
      "\"reselections\": 5, \"swaps_committed\": 5, "
      "\"parse_p50_ms\": 0.125, \"parse_p95_ms\": 0.250, "
      "\"parse_p99_ms\": 0.375, \"rewrite_p50_ms\": 0.062, "
      "\"rewrite_p95_ms\": 0.125, \"rewrite_p99_ms\": 0.188, "
      "\"execute_p50_ms\": 0.250, \"execute_p95_ms\": 0.750, "
      "\"execute_p99_ms\": 1.500, \"rewrite_cache_hits\": 70, "
      "\"rewrite_cache_misses\": 10}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(ThroughputJson({FixtureResult()}), expected);
}

TEST(LoadGenWriterTest, GoldenCsv) {
  const std::string expected =
      "workload,mode,queries,tables,candidates,selected,clients,seed,"
      "requests,elapsed_s,qps,p50_ms,p95_ms,p99_ms,mean_ms,csr_shards,"
      "csr_bytes,peak_rss_mb,select_utility,select_timed_out,"
      "view_budget_bytes,store_bytes,store_views,evictions,"
      "rewrite_fallbacks,failed_requests,drift,online,ingested,"
      "reselections,swaps_committed,parse_p50_ms,parse_p95_ms,"
      "parse_p99_ms,rewrite_p50_ms,rewrite_p95_ms,rewrite_p99_ms,"
      "execute_p50_ms,execute_p95_ms,execute_p99_ms,rewrite_cache_hits,"
      "rewrite_cache_misses\n"
      "WK1,scaled,48,24,6,3,4,12345,80,0.062,1280.00,0.500,1.250,2.500,"
      "0.625,2,150,10.5,0.0625,0,65536,4096,3,2,1,0,churn,1,80,5,5,"
      "0.125,0.250,0.375,0.062,0.125,0.188,0.250,0.750,1.500,70,10\n";
  EXPECT_EQ(ThroughputCsv({FixtureResult()}), expected);
}

TEST(LoadGenWriterTest, WriteTextFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "loadgen_writer_test.txt";
  const std::string text = "line one\nline two\n";
  ASSERT_TRUE(WriteTextFile(path, text).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string read(64, '\0');
  read.resize(std::fread(read.data(), 1, read.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(read, text);
}

TEST(LoadGenTest, PeakRssIsPositive) { EXPECT_GT(PeakRssBytes(), 0u); }

}  // namespace
}  // namespace autoview

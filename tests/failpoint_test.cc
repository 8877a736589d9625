#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "costmodel/fallback.h"
#include "costmodel/traditional.h"
#include "costmodel/wide_deep.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/view_store.h"
#include "plan/builder.h"
#include "util/metrics.h"

namespace autoview {
namespace {

/// Every test must leave the process-wide registry disarmed: other test
/// binaries (and the determinism suites) rely on failpoints being off.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Instance().Clear();
    GlobalRobustness().Reset();
  }
  void TearDown() override {
    Failpoints::Instance().Clear();
    GlobalRobustness().Reset();
  }
};

TEST_F(FailpointTest, DisarmedByDefault) {
  EXPECT_FALSE(Failpoints::Instance().enabled());
  EXPECT_EQ(Failpoints::Instance().Evaluate("viewstore.materialize"),
            FailAction::kNone);
  EXPECT_EQ(AV_FAILPOINT("wide_deep.infer"), FailAction::kNone);
  EXPECT_EQ(Failpoints::Instance().total_hits(), 0u);
}

TEST_F(FailpointTest, ConfigureParsesSpec) {
  ASSERT_TRUE(Failpoints::Instance()
                  .Configure("viewstore.materialize=error:0.5;"
                             "wide_deep.infer=nan:0.1;metadata.load=corrupt")
                  .ok());
  EXPECT_TRUE(Failpoints::Instance().enabled());
  // An unarmed site stays kNone even while others are armed.
  EXPECT_EQ(Failpoints::Instance().Evaluate("executor.scan"),
            FailAction::kNone);
  // Probability 1.0 (default) fires every time.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(Failpoints::Instance().Evaluate("metadata.load"),
              FailAction::kCorrupt);
  }
  EXPECT_EQ(Failpoints::Instance().hits("metadata.load"), 5u);
  EXPECT_EQ(Failpoints::Instance().total_hits(), 5u);
}

TEST_F(FailpointTest, EmptySpecDisarms) {
  ASSERT_TRUE(Failpoints::Instance().Configure("a.site=error").ok());
  EXPECT_TRUE(Failpoints::Instance().enabled());
  ASSERT_TRUE(Failpoints::Instance().Configure("").ok());
  EXPECT_FALSE(Failpoints::Instance().enabled());
}

TEST_F(FailpointTest, MalformedSpecRejectedAndDisarmed) {
  // Every comparison with NaN is false, so a NaN probability would slip
  // past the [0,1] check and then fire on every call.
  for (const char* bad : {"no_equals", "site=", "site=banana",
                          "site=error:1.5", "site=error:-0.1",
                          "site=error:notanumber", "site=error:nan",
                          "site=error:NAN", "site=error:0x1p-1",
                          "site=error:inf"}) {
    ASSERT_TRUE(Failpoints::Instance().Configure("other.site=error").ok());
    const Status status = Failpoints::Instance().Configure(bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_FALSE(Failpoints::Instance().enabled()) << bad;
  }
}

TEST_F(FailpointTest, ProbabilityRollsAreRoughlyCalibrated) {
  ASSERT_TRUE(Failpoints::Instance().Configure("coin.flip=error:0.5").ok());
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    if (Failpoints::Instance().Evaluate("coin.flip") == FailAction::kError) {
      ++fired;
    }
  }
  EXPECT_GT(fired, 300);
  EXPECT_LT(fired, 700);
  EXPECT_EQ(Failpoints::Instance().hits("coin.flip"),
            static_cast<uint64_t>(fired));
}

TEST_F(FailpointTest, RollsAreDeterministicAcrossReconfigure) {
  std::vector<int> first, second;
  for (auto* out : {&first, &second}) {
    ASSERT_TRUE(Failpoints::Instance().Configure("coin.flip=error:0.5").ok());
    for (int i = 0; i < 64; ++i) {
      out->push_back(
          Failpoints::Instance().Evaluate("coin.flip") == FailAction::kError);
    }
  }
  EXPECT_EQ(first, second);
}

TEST_F(FailpointTest, InjectedFaultsAreCounted) {
  ASSERT_TRUE(Failpoints::Instance().Configure("a.site=nan").ok());
  for (int i = 0; i < 3; ++i) Failpoints::Instance().Evaluate("a.site");
  EXPECT_EQ(GlobalRobustness().Read().faults_injected, 3u);
}

/// Fixture with a one-table database for the engine-level sites.
class FailpointEngineTest : public FailpointTest {
 protected:
  void SetUp() override {
    FailpointTest::SetUp();
    std::vector<Row> rows;
    for (int i = 0; i < 20; ++i) {
      std::string memo = "m";
      memo += std::to_string(i % 3);
      rows.push_back({Value(int64_t{i}), Value(std::move(memo))});
    }
    ASSERT_TRUE(db_.AddTable(TableSchema("t", {{"a", ColumnType::kInt64},
                                               {"b", ColumnType::kString}}),
                             std::move(rows))
                    .ok());
    ASSERT_TRUE(db_.ComputeAllStats().ok());
  }

  PlanNodePtr MustBuild(const std::string& sql) {
    PlanBuilder builder(&db_.catalog());
    auto r = builder.BuildFromSql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : nullptr;
  }

  Database db_;
};

TEST_F(FailpointEngineTest, MaterializeSiteInjectsError) {
  Executor exec(&db_);
  MaterializedViewStore store(&db_);
  PlanNodePtr sub = MustBuild("select a from t where b = 'm0'");

  ASSERT_TRUE(
      Failpoints::Instance().Configure("viewstore.materialize=error").ok());
  auto r = store.Materialize(sub, exec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(store.size(), 0u);

  // Disarmed, the exact same call succeeds: the fault was injected, not
  // a real defect.
  Failpoints::Instance().Clear();
  EXPECT_TRUE(store.Materialize(sub, exec).ok());
}

TEST_F(FailpointEngineTest, ExecutorScanSiteInjectsError) {
  Executor exec(&db_);
  PlanNodePtr plan = MustBuild("select * from t");
  ASSERT_TRUE(Failpoints::Instance().Configure("executor.scan=error").ok());
  EXPECT_FALSE(exec.Execute(*plan).ok());
  Failpoints::Instance().Clear();
  EXPECT_TRUE(exec.Execute(*plan).ok());
}

TEST_F(FailpointEngineTest, WideDeepNanFallsBackToTraditional) {
  WideDeepEstimator wide_deep(&db_.catalog(), WideDeepOptions::Full());
  ASSERT_TRUE(
      Failpoints::Instance().Configure("wide_deep.infer=nan:1.0").ok());

  CostSample sample;
  sample.query = MustBuild("select * from t");
  sample.view = MustBuild("select a from t where b = 'm0'");
  sample.tables = {"t"};
  sample.query_cost = 2.0;
  sample.subquery_cost = 1.0;
  EXPECT_TRUE(std::isnan(wide_deep.Estimate(sample)));

  // The degradation wrapper turns that NaN into a finite traditional
  // prediction and counts the substitution.
  TraditionalEstimator traditional(&db_.catalog(), Pricing{});
  FallbackEstimator guarded(&wide_deep, &traditional);
  const double estimate = guarded.Estimate(sample);
  EXPECT_TRUE(std::isfinite(estimate));
  EXPECT_EQ(guarded.fallback_calls(), 1u);
  EXPECT_GE(GlobalRobustness().Read().estimator_fallbacks, 1u);

  const auto batch = guarded.EstimateBatch({sample, sample, sample});
  ASSERT_EQ(batch.size(), 3u);
  for (double v : batch) EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(guarded.fallback_calls(), 4u);
}

}  // namespace
}  // namespace autoview

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/autoview.h"
#include "test_stats.h"
#include "util/metrics.h"
#include "costmodel/baselines.h"
#include "costmodel/gbm.h"
#include "costmodel/traditional.h"
#include "costmodel/wide_deep.h"
#include "workload/generator.h"

namespace autoview {
namespace {

/// Shared fixture: one small workload, ground truth built once.
class CostModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CloudWorkloadSpec spec;
    spec.name = "mini";
    spec.projects = 3;
    spec.queries = 50;
    spec.min_rows = 300;
    spec.max_rows = 900;
    spec.subquery_pool = 8;
    spec.seed = 21;
    workload_ = new GeneratedWorkload(GenerateCloudWorkload(spec));
    system_ = new AutoViewSystem(workload_->db.get(), AutoViewOptions{});
    ASSERT_TRUE(system_->LoadWorkload(workload_->sql).ok());
    ASSERT_TRUE(system_->BuildGroundTruth().ok());
    const auto& dataset = system_->cost_dataset();
    ASSERT_GE(dataset.size(), 20u);
    DatasetSplit split = SplitDataset(dataset.size(), 9);
    for (size_t i : split.train) train_.push_back(dataset[i]);
    for (size_t i : split.test) test_.push_back(dataset[i]);
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
    delete workload_;
    workload_ = nullptr;
  }

  static GeneratedWorkload* workload_;
  static AutoViewSystem* system_;
  static std::vector<CostSample> train_;
  static std::vector<CostSample> test_;
};

GeneratedWorkload* CostModelTest::workload_ = nullptr;
AutoViewSystem* CostModelTest::system_ = nullptr;
std::vector<CostSample> CostModelTest::train_;
std::vector<CostSample> CostModelTest::test_;

TEST_F(CostModelTest, FeatureExtractionShape) {
  FeatureExtractor extractor(&workload_->db->catalog());
  Features f = extractor.Extract(train_.front());
  EXPECT_EQ(f.numeric.size(), FeatureExtractor::NumNumericFeatures());
  EXPECT_FALSE(f.query_plan.empty());
  EXPECT_FALSE(f.view_plan.empty());
  EXPECT_FALSE(f.schema_keywords.empty());
  // Plan tokens start with an operator name.
  EXPECT_TRUE(f.query_plan[0][0] == "Aggregate" ||
              f.query_plan[0][0] == "Project" || f.query_plan[0][0] == "Join");
}

TEST_F(CostModelTest, NormalizerStandardizes) {
  Normalizer norm;
  norm.Fit({{1.0, 10.0}, {3.0, 10.0}});
  auto out = norm.Apply({3.0, 10.0});
  EXPECT_NEAR(out[0], 1.0, 1e-9);
  EXPECT_NEAR(out[1], 0.0, 1e-9);  // constant dim maps to 0
  // Unfitted normalizer passes through.
  Normalizer empty;
  EXPECT_EQ(empty.Apply({5.0})[0], 5.0);
}

TEST_F(CostModelTest, VocabSharedAndUnknownSafe) {
  KeywordVocab vocab;
  const size_t id = vocab.Add("user_id");
  EXPECT_EQ(vocab.Add("user_id"), id);
  EXPECT_EQ(vocab.Lookup("never_seen"), 0u);
  EXPECT_EQ(vocab.Add("'a string'"), 0u);  // literals are not keywords
  EXPECT_TRUE(KeywordVocab::IsStringLiteral("'x'"));
  EXPECT_FALSE(KeywordVocab::IsStringLiteral("x"));
}

TEST_F(CostModelTest, SplitRespectsRatio) {
  DatasetSplit split = SplitDataset(100, 3);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.validation.size(), 10u);
  EXPECT_EQ(split.test.size(), 20u);
  // Disjoint cover.
  std::set<size_t> all(split.train.begin(), split.train.end());
  all.insert(split.validation.begin(), split.validation.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST_F(CostModelTest, TraditionalEstimatorIsFiniteAndPositive) {
  TraditionalEstimator optimizer(&workload_->db->catalog(), Pricing{});
  for (const auto& sample : test_) {
    const double est = optimizer.Estimate(sample);
    EXPECT_GE(est, 0.0);
    EXPECT_TRUE(std::isfinite(est));
  }
}

TEST_F(CostModelTest, CardinalityEstimatorSanity) {
  CardinalityEstimator card(&workload_->db->catalog());
  // Scan cardinality equals the stats row count.
  const auto& q = train_.front().query;
  for (const auto& node : q->Subtrees()) {
    if (node->op() == PlanOp::kTableScan) {
      EXPECT_EQ(card.EstimateRows(*node),
                static_cast<double>(workload_->db->catalog()
                                        .GetStats(node->table())
                                        .row_count));
    } else {
      EXPECT_GE(card.EstimateRows(*node), 0.0);
    }
  }
}

TEST_F(CostModelTest, LinearRegressorLearnsSomething) {
  LinearRegressorEstimator lr(&workload_->db->catalog());
  ASSERT_TRUE(lr.Train(train_).ok());
  EstimatorMetrics train_metrics = EvaluateEstimator(lr, train_);
  // Should beat the trivial predict-zero baseline on training data.
  double mean_abs = 0;
  for (const auto& s : train_) mean_abs += std::fabs(s.target);
  mean_abs /= static_cast<double>(train_.size());
  EXPECT_LT(train_metrics.mae, mean_abs);
}

TEST_F(CostModelTest, GbmFitsTrainingData) {
  GbmEstimator gbm(&workload_->db->catalog());
  ASSERT_TRUE(gbm.Train(train_).ok());
  EXPECT_GT(gbm.num_trees(), 0u);
  // Boosting must improve substantially on the constant mean predictor.
  double mean = 0;
  for (const auto& s : train_) mean += s.target;
  mean /= static_cast<double>(train_.size());
  double base_mae = 0;
  for (const auto& s : train_) base_mae += std::fabs(s.target - mean);
  base_mae /= static_cast<double>(train_.size());
  // Numeric features alone cannot separate same-shaped plans that
  // differ only in literals (the paper's motivation for plan content
  // encodings), so require improvement rather than a tight fit.
  EXPECT_LT(EvaluateEstimator(gbm, train_).mae, 0.9 * base_mae);
}

TEST_F(CostModelTest, WideDeepTrainsAndBeatsOptimizer) {
  WideDeepOptions opts = WideDeepOptions::Full();
  opts.epochs = 15;
  opts.batch_size = 8;
  WideDeepEstimator wd(&workload_->db->catalog(), opts);
  ASSERT_TRUE(wd.Train(train_).ok());
  EXPECT_GT(wd.NumParameters(), 1000u);
  // Loss decreased over training.
  const auto& losses = wd.training_losses();
  ASSERT_GE(losses.size(), 2u);
  EXPECT_LT(losses.back(), losses.front());

  TraditionalEstimator optimizer(&workload_->db->catalog(), Pricing{});
  const double wd_mape = EvaluateEstimator(wd, test_).mape;
  const double opt_mape = EvaluateEstimator(optimizer, test_).mape;
  EXPECT_LT(wd_mape, opt_mape);
}

TEST_F(CostModelTest, AblationsConstructAndTrain) {
  for (WideDeepOptions opts : {WideDeepOptions::NKw(), WideDeepOptions::NStr(),
                               WideDeepOptions::NExp()}) {
    opts.epochs = 3;
    opts.batch_size = 8;
    WideDeepEstimator model(&workload_->db->catalog(), opts);
    ASSERT_TRUE(model.Train(train_).ok()) << model.name();
    const double est = model.Estimate(test_.front());
    EXPECT_TRUE(std::isfinite(est)) << model.name();
  }
  EXPECT_EQ(WideDeepEstimator(&workload_->db->catalog(),
                              WideDeepOptions::NKw())
                .name(),
            "N-Kw");
  EXPECT_EQ(WideDeepEstimator(&workload_->db->catalog(),
                              WideDeepOptions::NStr())
                .name(),
            "N-Str");
  EXPECT_EQ(WideDeepEstimator(&workload_->db->catalog(),
                              WideDeepOptions::NExp())
                .name(),
            "N-Exp");
}

TEST_F(CostModelTest, DeepLearnTrainsOnSinglePlans) {
  DeepLearnEstimator::Options opts;
  opts.epochs = 8;
  DeepLearnEstimator dl(&workload_->db->catalog(), Pricing{}, opts);
  ASSERT_TRUE(dl.Train(train_).ok());
  for (size_t i = 0; i < 5 && i < test_.size(); ++i) {
    EXPECT_TRUE(std::isfinite(dl.Estimate(test_[i])));
    EXPECT_GE(dl.Estimate(test_[i]), 0.0);
  }
}

TEST_F(CostModelTest, EstimatedProblemTracksGroundTruth) {
  // An accurate estimator should produce an MvsProblem whose benefits
  // correlate with the ground truth.
  WideDeepOptions opts = WideDeepOptions::Full();
  opts.epochs = 15;
  opts.batch_size = 8;
  WideDeepEstimator wd(&workload_->db->catalog(), opts);
  ASSERT_TRUE(wd.Train(system_->cost_dataset()).ok());
  auto estimated = system_->EstimateProblem(wd);
  ASSERT_TRUE(estimated.ok());
  std::vector<double> truth, est;
  for (size_t i = 0; i < system_->problem().num_queries(); ++i) {
    for (size_t j = 0; j < system_->problem().num_views(); ++j) {
      if (system_->problem().benefit[i][j] == 0.0) continue;
      truth.push_back(system_->problem().benefit[i][j]);
      est.push_back(estimated.value().benefit[i][j]);
    }
  }
  ASSERT_GT(truth.size(), 10u);
  EXPECT_GT(PearsonCorrelation(truth, est), 0.5);
}

TEST_F(CostModelTest, EmptyTrainingRejected) {
  WideDeepEstimator wd(&workload_->db->catalog(), WideDeepOptions::Full());
  EXPECT_FALSE(wd.Train({}).ok());
  LinearRegressorEstimator lr(&workload_->db->catalog());
  EXPECT_FALSE(lr.Train({}).ok());
  GbmEstimator gbm(&workload_->db->catalog());
  EXPECT_FALSE(gbm.Train({}).ok());
}

}  // namespace
}  // namespace autoview

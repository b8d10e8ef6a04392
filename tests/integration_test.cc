// End-to-end shape tests: generate a ReVerb45K-like benchmark, build all
// signals, run JOCL and the key baselines, and assert the paper's
// qualitative findings (who wins) on a small instance. Absolute numbers are
// not asserted — only orderings the paper's tables establish.
#include <gtest/gtest.h>

#include "baselines/entity_linking.h"
#include "baselines/np_canonicalization.h"
#include "core/jocl.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "eval/linking_metrics.h"

namespace jocl {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(
        GenerateReVerb45K(/*scale=*/0.5, /*seed=*/42).MoveValueOrDie());
    SignalOptions signal_options;
    signal_options.embedding_epochs = 3;
    signals_ = new SignalBundle(
        BuildSignals(*dataset_, signal_options).MoveValueOrDie());
    Jocl jocl;
    result_ = new JoclResult(
        jocl.Run(*dataset_, *signals_, dataset_->test_triples)
            .MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete result_;
    delete signals_;
    delete dataset_;
  }

  static std::vector<size_t> GoldNp() {
    std::vector<size_t> gold;
    for (size_t t : dataset_->test_triples) {
      gold.push_back(static_cast<size_t>(dataset_->gold_np_group[t * 2]));
      gold.push_back(static_cast<size_t>(dataset_->gold_np_group[t * 2 + 1]));
    }
    return gold;
  }

  static std::vector<int64_t> GoldEntity() {
    std::vector<int64_t> gold;
    for (size_t t : dataset_->test_triples) {
      gold.push_back(dataset_->gold_subject_entity[t]);
      gold.push_back(dataset_->gold_object_entity[t]);
    }
    return gold;
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
  static JoclResult* result_;
};

Dataset* IntegrationTest::dataset_ = nullptr;
SignalBundle* IntegrationTest::signals_ = nullptr;
JoclResult* IntegrationTest::result_ = nullptr;

TEST_F(IntegrationTest, JoclCanonicalizationIsUseful) {
  ClusteringScore score =
      EvaluateClustering(result_->np_cluster, GoldNp());
  // Far better than chance on every component.
  EXPECT_GT(score.macro.f1, 0.2);
  EXPECT_GT(score.micro.f1, 0.5);
  EXPECT_GT(score.pairwise.f1, 0.3);
  EXPECT_GT(score.average_f1, 0.4);
}

TEST_F(IntegrationTest, JoclBeatsMorphNormAndIdfBaselines) {
  std::vector<size_t> gold = GoldNp();
  double jocl_f1 = EvaluateClustering(result_->np_cluster, gold).average_f1;
  double morph = EvaluateClustering(
                     MorphNormCanonicalize(*dataset_, dataset_->test_triples),
                     gold)
                     .average_f1;
  double idf = EvaluateClustering(
                   IdfTokenOverlapCanonicalize(*dataset_, *signals_,
                                               dataset_->test_triples),
                   gold)
                   .average_f1;
  EXPECT_GT(jocl_f1, morph);
  EXPECT_GT(jocl_f1, idf);
}

TEST_F(IntegrationTest, JoclLinkingBeatsPopularityOnly) {
  std::vector<int64_t> gold = GoldEntity();
  double jocl_acc = LinkingAccuracy(result_->np_link, gold);
  double spotlight_acc = LinkingAccuracy(
      SpotlightLink(*dataset_, *signals_, dataset_->test_triples), gold);
  double tagme_acc = LinkingAccuracy(
      TagMeLink(*dataset_, dataset_->test_triples), gold);
  EXPECT_GT(jocl_acc, 0.4);
  EXPECT_GE(jocl_acc, spotlight_acc - 0.02);  // at least on par
  EXPECT_GT(jocl_acc, tagme_acc);
}

TEST_F(IntegrationTest, JointBeatsCanonicalizationAlone) {
  // Table 4's headline: the full framework >= the single-task variant.
  Jocl cano_only(JoclOptions::CanonicalizationOnly());
  auto cano = cano_only.Run(*dataset_, *signals_, dataset_->test_triples);
  ASSERT_TRUE(cano.ok());
  std::vector<size_t> gold = GoldNp();
  double joint_f1 = EvaluateClustering(result_->np_cluster, gold).average_f1;
  double cano_f1 =
      EvaluateClustering(cano.ValueOrDie().np_cluster, gold).average_f1;
  EXPECT_GE(joint_f1, cano_f1 - 0.02);
}

TEST_F(IntegrationTest, JointBeatsLinkingAlone) {
  Jocl link_only(JoclOptions::LinkingOnly());
  auto link = link_only.Run(*dataset_, *signals_, dataset_->test_triples);
  ASSERT_TRUE(link.ok());
  std::vector<int64_t> gold = GoldEntity();
  double joint_acc = LinkingAccuracy(result_->np_link, gold);
  double link_acc = LinkingAccuracy(link.ValueOrDie().np_link, gold);
  // Allow small-sample noise; the paper's strict win at benchmark scale is
  // bench_paper's `table4_jocl_link_beats_jocllink` ordering.
  EXPECT_GE(joint_acc, link_acc - 0.04);
}

TEST_F(IntegrationTest, MoreFeaturesHelp) {
  // Figure 4's shape: JOCL-all >= JOCL-single.
  JoclOptions single_options;
  single_options.builder.features = FeatureMask::Single();
  Jocl single(single_options);
  auto single_result =
      single.Run(*dataset_, *signals_, dataset_->test_triples);
  ASSERT_TRUE(single_result.ok());
  std::vector<size_t> gold = GoldNp();
  double all_f1 = EvaluateClustering(result_->np_cluster, gold).average_f1;
  double single_f1 =
      EvaluateClustering(single_result.ValueOrDie().np_cluster, gold)
          .average_f1;
  EXPECT_GE(all_f1, single_f1 - 0.02);
}

TEST_F(IntegrationTest, LbpConvergesWithinPaperBudget) {
  EXPECT_LE(result_->diagnostics.iterations, 20u);
}

TEST_F(IntegrationTest, DefaultInferenceConverges) {
  // The default schedule meets the tolerance on every component, head
  // included, instead of stopping on the sweep budget.
  EXPECT_TRUE(result_->diagnostics.converged);
  EXPECT_EQ(result_->diagnostics.unconverged_components, 0u);
  EXPECT_LT(result_->diagnostics.final_residual,
            JoclOptions().inference.tolerance);
}

TEST_F(IntegrationTest, RpCanonicalizationIsUseful) {
  std::vector<size_t> gold;
  for (size_t t : dataset_->test_triples) {
    gold.push_back(static_cast<size_t>(dataset_->gold_rp_group[t]));
  }
  ClusteringScore score = EvaluateClustering(result_->rp_cluster, gold);
  EXPECT_GT(score.average_f1, 0.3);
}

}  // namespace
}  // namespace jocl

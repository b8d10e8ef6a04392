// Robustness and determinism of the end-to-end pipeline on degenerate and
// adversarial inputs: empty subsets, single triples, out-of-range triple
// ids, missing CKBs, and repeated runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/jocl.h"
#include "core/runtime.h"
#include "core/signals.h"
#include "data/generator.h"

namespace jocl {
namespace {

class JoclRobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.num_entities = 40;
    options.num_relations = 6;
    options.num_triples = 150;
    options.seed = 5;
    dataset_ = new Dataset(
        GenerateDataset(options, "robustness").MoveValueOrDie());
    SignalOptions signal_options;
    signal_options.embedding_epochs = 2;
    signals_ = new SignalBundle(
        BuildSignals(*dataset_, signal_options).MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete signals_;
    delete dataset_;
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
};

Dataset* JoclRobustnessTest::dataset_ = nullptr;
SignalBundle* JoclRobustnessTest::signals_ = nullptr;

TEST_F(JoclRobustnessTest, EmptySubsetYieldsEmptyResult) {
  Jocl jocl;
  auto result = jocl.Infer(*dataset_, *signals_, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().triples.empty());
  EXPECT_TRUE(result.ValueOrDie().np_cluster.empty());
  EXPECT_TRUE(result.ValueOrDie().np_link.empty());
}

TEST_F(JoclRobustnessTest, SingleTripleWorks) {
  Jocl jocl;
  auto result = jocl.Infer(*dataset_, *signals_, {0});
  ASSERT_TRUE(result.ok());
  const JoclResult& r = result.ValueOrDie();
  EXPECT_EQ(r.np_cluster.size(), 2u);
  EXPECT_EQ(r.rp_cluster.size(), 1u);
  // Subject and object of a single triple are distinct surfaces here;
  // no pair variables exist, so both stay in their own clusters unless
  // they are the same string.
  if (dataset_->okb.triple(0).subject != dataset_->okb.triple(0).object) {
    EXPECT_NE(r.np_cluster[0], r.np_cluster[1]);
  }
}

TEST_F(JoclRobustnessTest, DuplicateTriplesInSubsetAreDeduplicated) {
  Jocl jocl;
  auto result = jocl.Infer(*dataset_, *signals_, {3, 3, 1, 1, 2});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().triples, (std::vector<size_t>{1, 2, 3}));
}

TEST_F(JoclRobustnessTest, OutOfRangeTripleIsRejected) {
  // An id past the OKB must come back as a Status before any stage
  // indexes the OKB or the problem builder's per-triple arrays with it.
  for (size_t bad : {dataset_->okb.size(), SIZE_MAX}) {
    SCOPED_TRACE(bad);
    const std::vector<size_t> subset = {0, bad, 1};
    auto via_jocl = Jocl().Infer(*dataset_, *signals_, subset);
    ASSERT_FALSE(via_jocl.ok());
    EXPECT_EQ(via_jocl.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(via_jocl.status().message().find("out of range"),
              std::string::npos);
    auto via_runtime = JoclRuntime().Infer(*dataset_, *signals_, subset);
    ASSERT_FALSE(via_runtime.ok());
    EXPECT_EQ(via_runtime.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(JoclRobustnessTest, ResultTriplesSortedAscending) {
  Jocl jocl;
  auto result = jocl.Infer(*dataset_, *signals_, {9, 2, 7, 4});
  ASSERT_TRUE(result.ok());
  const auto& triples = result.ValueOrDie().triples;
  for (size_t i = 1; i < triples.size(); ++i) {
    EXPECT_LT(triples[i - 1], triples[i]);
  }
}

TEST_F(JoclRobustnessTest, InferIsDeterministic) {
  Jocl jocl;
  auto first = jocl.Infer(*dataset_, *signals_, dataset_->test_triples);
  auto second = jocl.Infer(*dataset_, *signals_, dataset_->test_triples);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.ValueOrDie().np_cluster, second.ValueOrDie().np_cluster);
  EXPECT_EQ(first.ValueOrDie().np_link, second.ValueOrDie().np_link);
  EXPECT_EQ(first.ValueOrDie().rp_link, second.ValueOrDie().rp_link);
}

TEST_F(JoclRobustnessTest, LearningIsDeterministic) {
  Jocl jocl;
  auto first = jocl.LearnWeights(*dataset_, *signals_);
  auto second = jocl.LearnWeights(*dataset_, *signals_);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.ValueOrDie(), second.ValueOrDie());
}

TEST(JoclNoCkbTest, AllMentionsLinkToNil) {
  // An OKB with an empty CKB: no candidates anywhere, every mention must
  // link to NIL and canonicalization must still run on string evidence.
  Dataset ds;
  ASSERT_TRUE(ds.okb.AddTriple("alpha beta", "works at", "gamma delta").ok());
  ASSERT_TRUE(ds.okb.AddTriple("alpha beta", "works at", "delta gamma").ok());
  for (size_t t = 0; t < 2; ++t) {
    ds.gold_subject_entity.push_back(kNilId);
    ds.gold_relation.push_back(kNilId);
    ds.gold_object_entity.push_back(kNilId);
    ds.gold_np_group.push_back(0);
    ds.gold_np_group.push_back(1);
    ds.gold_rp_group.push_back(0);
  }
  SignalBundle sig = BuildSignals(ds).MoveValueOrDie();
  Jocl jocl;
  auto result = jocl.Infer(ds, sig, {0, 1});
  ASSERT_TRUE(result.ok());
  for (int64_t link : result.ValueOrDie().np_link) {
    EXPECT_EQ(link, kNilId);
  }
  for (int64_t link : result.ValueOrDie().rp_link) {
    EXPECT_EQ(link, kNilId);
  }
  // Identical subject surfaces share a cluster.
  EXPECT_EQ(result.ValueOrDie().np_cluster[0],
            result.ValueOrDie().np_cluster[2]);
  // Identical predicates share a cluster.
  EXPECT_EQ(result.ValueOrDie().rp_cluster[0],
            result.ValueOrDie().rp_cluster[1]);
}

TEST_F(JoclRobustnessTest, LearnedWeightsAllFinite) {
  Jocl jocl;
  auto weights = jocl.LearnWeights(*dataset_, *signals_);
  ASSERT_TRUE(weights.ok());
  for (double w : weights.ValueOrDie()) {
    EXPECT_TRUE(std::isfinite(w));
  }
}

TEST_F(JoclRobustnessTest, MarginalsAreDistributions) {
  Jocl jocl;
  auto result = jocl.Infer(*dataset_, *signals_, dataset_->test_triples);
  ASSERT_TRUE(result.ok());
  for (const auto& marginal : result.ValueOrDie().diagnostics.marginals) {
    double total = 0.0;
    for (double p : marginal) {
      EXPECT_GE(p, -1e-12);
      EXPECT_LE(p, 1.0 + 1e-12);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace jocl

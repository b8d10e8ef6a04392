// Hand-verified factor tables: the graph builder must encode exactly the
// paper's feature functions (F1-F6) and heuristic scores (U1-U7). These
// tests build a tiny fully-controlled problem and check log-potentials
// cell by cell.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/graph_builder.h"
#include "core/problem.h"
#include "core/shard.h"
#include "core/signal_cache.h"
#include "core/signals.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "graph/compiled_graph.h"
#include "serve/snapshot_io.h"

namespace jocl {
namespace {

// A tiny world: two entities, one relation, two triples whose subjects
// are aliases ("acme corp", "acme") and whose objects are both "bolt".
class GraphBuilderFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    acme_ = ds_.ckb.AddEntity("acme corp");
    bolt_ = ds_.ckb.AddEntity("bolt industries");
    rel_ = ds_.ckb.AddRelation("owner_company");
    ASSERT_TRUE(ds_.ckb.AddFact(acme_, rel_, bolt_).ok());
    ASSERT_TRUE(ds_.ckb.AddAnchor("acme corp", acme_, 80).ok());
    ASSERT_TRUE(ds_.ckb.AddAnchor("acme", acme_, 60).ok());
    ASSERT_TRUE(ds_.ckb.AddAnchor("acme", bolt_, 20).ok());  // ambiguous
    ASSERT_TRUE(ds_.ckb.AddAnchor("bolt industries", bolt_, 50).ok());
    ASSERT_TRUE(ds_.okb.AddTriple("acme corp", "owns", "bolt industries")
                    .ok());
    ASSERT_TRUE(ds_.okb.AddTriple("acme", "owns", "bolt industries").ok());
    for (size_t t = 0; t < 2; ++t) {
      ds_.gold_subject_entity.push_back(acme_);
      ds_.gold_relation.push_back(rel_);
      ds_.gold_object_entity.push_back(bolt_);
      ds_.gold_np_group.push_back(0);
      ds_.gold_np_group.push_back(1);
      ds_.gold_rp_group.push_back(0);
    }
    ds_.ppdb.AddCluster({"acme corp", "acme"});
    signals_ = BuildSignals(ds_).MoveValueOrDie();
    problem_ = BuildProblem(ds_, signals_, {0, 1});
  }

  Dataset ds_;
  EntityId acme_ = -1;
  EntityId bolt_ = -1;
  RelationId rel_ = -1;
  SignalBundle signals_;
  JoclProblem problem_;
};

TEST_F(GraphBuilderFixture, SubjectPairExistsWithPpdbBlocking) {
  // "acme corp" vs "acme" — IDF shares the rare token "acme", and the
  // PPDB cluster guarantees blocking either way.
  ASSERT_EQ(problem_.subject_pairs.size(), 1u);
  EXPECT_EQ(problem_.subject_surfaces[problem_.subject_pairs[0].a],
            "acme corp");
  EXPECT_EQ(problem_.subject_surfaces[problem_.subject_pairs[0].b], "acme");
}

TEST_F(GraphBuilderFixture, F1TableEncodesSimAndOneMinusSim) {
  JoclGraph jg = BuildJoclGraph(problem_, signals_, ds_.ckb);
  ASSERT_EQ(jg.x_vars.size(), 1u);
  // The F1 factor is the first factor attached to x_0.
  const auto& attachments = jg.graph.AttachedFactors(jg.x_vars[0]);
  ASSERT_FALSE(attachments.empty());
  const FactorNode& f1 = jg.graph.factor(attachments[0].first);
  ASSERT_EQ(f1.scope.size(), 1u);

  // Isolate each feature by zeroing all other weights.
  const std::string& a = problem_.subject_surfaces[0];
  const std::string& b = problem_.subject_surfaces[1];
  double idf = problem_.subject_pairs[0].idf;
  double emb = signals_.Emb(a, b);
  double ppdb = signals_.Ppdb(a, b);
  std::vector<double> w(WeightLayout::kCount, 0.0);

  // Sub-threshold IDF is neutralized to 0.5 (GraphBuilderOptions).
  GraphBuilderOptions defaults;
  double expected_idf = idf >= defaults.idf_neutral_below ? idf : 0.5;
  w[WeightLayout::kAlpha1 + 0] = 1.0;  // f_idf
  EXPECT_NEAR(f1.features.LogPotential(1, w), expected_idf, 1e-12);
  EXPECT_NEAR(f1.features.LogPotential(0, w), 1.0 - expected_idf, 1e-12);
  w[WeightLayout::kAlpha1 + 0] = 0.0;

  w[WeightLayout::kAlpha1 + 1] = 1.0;  // f_emb
  EXPECT_NEAR(f1.features.LogPotential(1, w), emb, 1e-12);
  EXPECT_NEAR(f1.features.LogPotential(0, w), 1.0 - emb, 1e-12);
  w[WeightLayout::kAlpha1 + 1] = 0.0;

  w[WeightLayout::kAlpha1 + 2] = 1.0;  // f_PPDB (same cluster -> 1)
  EXPECT_NEAR(f1.features.LogPotential(1, w), ppdb, 1e-12);
  EXPECT_DOUBLE_EQ(ppdb, 1.0);
}

TEST_F(GraphBuilderFixture, U4RewardsKnownFacts) {
  JoclGraph jg = BuildJoclGraph(problem_, signals_, ds_.ckb);
  // Find the U4 factor of triple 0 (named "U4").
  const FactorNode* u4 = nullptr;
  for (FactorId f = 0; f < jg.graph.factor_count(); ++f) {
    if (jg.graph.factor(f).name == "U4") {
      u4 = &jg.graph.factor(f);
      break;
    }
  }
  ASSERT_NE(u4, nullptr);
  ASSERT_EQ(u4->scope.size(), 3u);

  std::vector<double> w(WeightLayout::kCount, 0.0);
  w[WeightLayout::kBeta4] = 1.0;
  // NIL states (assignment 0) must carry the low score.
  GraphBuilderOptions defaults;
  EXPECT_NEAR(u4->features.LogPotential(0, w), defaults.fact_low, 1e-12);
  // Some assignment must carry the high score (the known fact
  // <acme, owner_company, bolt>), and none may be outside {low, high}.
  bool found_high = false;
  size_t assignments = 1;
  for (VariableId v : u4->scope) {
    assignments *= jg.graph.variable(v).cardinality;
  }
  for (size_t a = 0; a < assignments; ++a) {
    double value = u4->features.LogPotential(a, w);
    EXPECT_TRUE(std::abs(value - defaults.fact_low) < 1e-12 ||
                std::abs(value - defaults.fact_high) < 1e-12);
    if (std::abs(value - defaults.fact_high) < 1e-12) found_high = true;
  }
  EXPECT_TRUE(found_high);
}

TEST_F(GraphBuilderFixture, U5ConsistencyValues) {
  JoclGraph jg = BuildJoclGraph(problem_, signals_, ds_.ckb);
  const FactorNode* u5 = nullptr;
  for (FactorId f = 0; f < jg.graph.factor_count(); ++f) {
    if (jg.graph.factor(f).name == "U5") {
      u5 = &jg.graph.factor(f);
      break;
    }
  }
  ASSERT_NE(u5, nullptr);
  ASSERT_EQ(u5->scope.size(), 3u);  // (es_i, es_j, x)

  std::vector<double> w(WeightLayout::kCount, 0.0);
  w[WeightLayout::kBeta5] = 1.0;
  GraphBuilderOptions defaults;
  // Assignment 0 = (NIL, NIL, x=0): two NILs are neutral evidence.
  EXPECT_NEAR(u5->features.LogPotential(0, w), defaults.consistency_neutral,
              1e-12);
  // Assignment 1 = (NIL, NIL, x=1): still neutral.
  EXPECT_NEAR(u5->features.LogPotential(1, w), defaults.consistency_neutral,
              1e-12);
  // Every cell is one of {low, neutral, high}.
  size_t assignments = 1;
  for (VariableId v : u5->scope) {
    assignments *= jg.graph.variable(v).cardinality;
  }
  bool found_high = false;
  bool found_low = false;
  for (size_t a = 0; a < assignments; ++a) {
    double value = u5->features.LogPotential(a, w);
    bool ok = std::abs(value - defaults.consistency_low) < 1e-12 ||
              std::abs(value - defaults.consistency_neutral) < 1e-12 ||
              std::abs(value - defaults.consistency_high) < 1e-12;
    EXPECT_TRUE(ok) << "assignment " << a << " value " << value;
    found_high |= std::abs(value - defaults.consistency_high) < 1e-12;
    found_low |= std::abs(value - defaults.consistency_low) < 1e-12;
  }
  EXPECT_TRUE(found_high);
  EXPECT_TRUE(found_low);
}

TEST_F(GraphBuilderFixture, TransitiveTableScoresByOnesCount) {
  // Build a 3-surface problem so a triangle exists: add a third alias.
  Dataset ds = ds_;
  ASSERT_TRUE(ds.okb.AddTriple("acme corporation", "owns",
                               "bolt industries").ok());
  ds.gold_subject_entity.push_back(acme_);
  ds.gold_relation.push_back(rel_);
  ds.gold_object_entity.push_back(bolt_);
  ds.gold_np_group.push_back(0);
  ds.gold_np_group.push_back(1);
  ds.gold_rp_group.push_back(0);
  SignalBundle signals = BuildSignals(ds).MoveValueOrDie();
  JoclProblem problem = BuildProblem(ds, signals, {0, 1, 2});
  if (problem.subject_pairs.size() < 3) {
    GTEST_SKIP() << "triangle did not form under blocking";
  }
  JoclGraph jg = BuildJoclGraph(problem, signals, ds.ckb);
  const FactorNode* u1 = nullptr;
  for (FactorId f = 0; f < jg.graph.factor_count(); ++f) {
    if (jg.graph.factor(f).name == "U1") {
      u1 = &jg.graph.factor(f);
      break;
    }
  }
  ASSERT_NE(u1, nullptr);
  std::vector<double> w(WeightLayout::kCount, 0.0);
  w[WeightLayout::kBeta1] = 1.0;
  GraphBuilderOptions defaults;
  // 8 assignments over 3 binary vars; score depends only on #ones.
  for (size_t a = 0; a < 8; ++a) {
    size_t ones = static_cast<size_t>((a & 1) != 0) +
                  static_cast<size_t>((a & 2) != 0) +
                  static_cast<size_t>((a & 4) != 0);
    double expected = ones == 3   ? defaults.transitive_high
                      : ones == 2 ? defaults.transitive_low
                                  : defaults.transitive_mid;
    EXPECT_NEAR(u1->features.LogPotential(a, w), expected, 1e-12)
        << "assignment " << a;
  }
}

TEST_F(GraphBuilderFixture, LinkingVariableStatesMatchCandidatesPlusNil) {
  JoclGraph jg = BuildJoclGraph(problem_, signals_, ds_.ckb);
  for (size_t t = 0; t < problem_.triples.size(); ++t) {
    EXPECT_EQ(jg.graph.variable(jg.es_vars[t]).cardinality,
              problem_.subject_candidates[problem_.subject_of[t]].size() + 1);
    EXPECT_EQ(jg.graph.variable(jg.rp_vars[t]).cardinality,
              problem_.predicate_candidates[problem_.predicate_of[t]].size() +
                  1);
  }
}

TEST_F(GraphBuilderFixture, ScheduleGroupsFollowPaperOrder) {
  JoclGraph jg = BuildJoclGraph(problem_, signals_, ds_.ckb);
  // Full graph: 5 groups (F-canon, U-trans may be empty, F-link, U4, U-cons).
  ASSERT_GE(jg.schedule.size(), 3u);
  // First group holds canonicalization factors (unary on pair vars).
  for (FactorId f : jg.schedule.front()) {
    EXPECT_EQ(jg.graph.factor(f).scope.size(), 1u);
  }
  // Last group holds the ternary consistency factors.
  for (FactorId f : jg.schedule.back()) {
    EXPECT_EQ(jg.graph.factor(f).scope.size(), 3u);
  }
}

// The compiled feature pools of a generated problem's shards, built over
// the runtime's SignalCache, are pinned by hash: any change to a feature
// value (a reordered max, a different similarity call, a memo that is not
// bit-identical to the direct computation) moves it. The constant was
// recorded before the F5 relation rows were memoized in SignalCache.
TEST(GraphBuilderPinTest, CompiledFeaturePoolsArePinned) {
  Dataset ds = GenerateReVerb45K(/*scale=*/0.15, /*seed=*/11).MoveValueOrDie();
  SignalOptions signal_options;
  signal_options.embedding_epochs = 2;
  SignalBundle signals = BuildSignals(ds, signal_options).MoveValueOrDie();
  JoclProblem problem = BuildProblem(ds, signals, ds.test_triples);
  SignalCache cache = SignalCache::ForProblem(problem, signals, ds.ckb);
  ShardPlan plan = PartitionProblem(problem, /*max_shards=*/0);
  ASSERT_GT(plan.shards.size(), 1u);

  std::string bytes;
  auto append = [&bytes](const void* data, size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  for (const ProblemShard& shard : plan.shards) {
    JoclGraph jgraph = BuildJoclGraph(shard.problem, cache, ds.ckb);
    CompiledGraph compiled = CompiledGraph::Compile(jgraph.graph);
    // Field by field: FeatureEntry has padding bytes.
    for (const FeatureEntry& entry : compiled.entry_pool) {
      const uint64_t weight = entry.weight;
      append(&weight, sizeof(weight));
      append(&entry.value, sizeof(entry.value));
    }
    append(compiled.uniform_pool.data(),
           compiled.uniform_pool.size() * sizeof(double));
  }
  EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), 0x8a951cb3086cb7d1ull)
      << plan.shards.size() << " shards, " << bytes.size() << " bytes";
}

}  // namespace
}  // namespace jocl

// Hand-verified factor tables: the graph builder must encode exactly the
// paper's feature functions (F1-F6) and heuristic scores (U1-U7). These
// tests build a tiny fully-controlled problem and check log-potentials
// cell by cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "core/graph_builder.h"
#include "core/problem.h"
#include "core/runtime.h"
#include "core/shard.h"
#include "core/signal_cache.h"
#include "core/sharded_learner.h"
#include "core/signals.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "serve/snapshot_io.h"

namespace jocl {
namespace {

// The first factor whose scope is exactly \p scope, in slot order, or
// factor_count() when there is none.
FactorId FindFactor(const FactorGraph& g,
                    const std::vector<VariableId>& scope) {
  for (FactorId f = 0; f < g.factor_count(); ++f) {
    if (g.arity(f) != scope.size()) continue;
    bool same = true;
    for (size_t slot = 0; slot < scope.size(); ++slot) {
      same = same && g.scope_var(g.scope_offset(f) + slot) == scope[slot];
    }
    if (same) return f;
  }
  return g.factor_count();
}

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
    cache_ = SignalCache::ForProblem(problem_, signals_, ds_.ckb);
  }

  Dataset ds_;
  EntityId acme_ = -1;
  EntityId bolt_ = -1;
  RelationId rel_ = -1;
  SignalBundle signals_;
  JoclProblem problem_;
  SignalCache cache_;
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
  JoclGraph jg = BuildJoclGraph(problem_, cache_, ds_.ckb);
  ASSERT_EQ(jg.x_vars.size(), 1u);
  // The F1 factor is the first factor attached to x_0, and unary.
  const FactorId f1 = FindFactor(jg.graph, {jg.x_vars[0]});
  ASSERT_LT(f1, jg.graph.factor_count());
  auto log_potential = [&](size_t a, const std::vector<double>& w) {
    return jg.graph.LogPotential(f1, a, w);
  };

  // Isolate each feature by zeroing all other weights.
  const std::string& a = problem_.subject_surfaces[0];
  const std::string& b = problem_.subject_surfaces[1];
  double idf = problem_.subject_pairs[0].idf;
  double emb = cache_.Emb(a, b);
  double ppdb = cache_.Ppdb(a, b);
  std::vector<double> w(WeightLayout::kCount, 0.0);

  // Sub-threshold IDF is neutralized to 0.5 (kIdfNeutralBelow).
  double expected_idf = idf >= kIdfNeutralBelow ? idf : 0.5;
  w[WeightLayout::kAlpha1 + 0] = 1.0;  // f_idf
  EXPECT_NEAR(log_potential(1, w), expected_idf, 1e-12);
  EXPECT_NEAR(log_potential(0, w), 1.0 - expected_idf, 1e-12);
  w[WeightLayout::kAlpha1 + 0] = 0.0;

  w[WeightLayout::kAlpha1 + 1] = 1.0;  // f_emb
  EXPECT_NEAR(log_potential(1, w), emb, 1e-12);
  EXPECT_NEAR(log_potential(0, w), 1.0 - emb, 1e-12);
  w[WeightLayout::kAlpha1 + 1] = 0.0;

  w[WeightLayout::kAlpha1 + 2] = 1.0;  // f_PPDB (same cluster -> 1)
  EXPECT_NEAR(log_potential(1, w), ppdb, 1e-12);
  EXPECT_DOUBLE_EQ(ppdb, 1.0);
}

TEST_F(GraphBuilderFixture, U4RewardsKnownFacts) {
  JoclGraph jg = BuildJoclGraph(problem_, cache_, ds_.ckb);
  // The U4 factor of triple 0 spans its three linking variables.
  const FactorId u4 =
      FindFactor(jg.graph, {jg.es_vars[0], jg.rp_vars[0], jg.eo_vars[0]});
  ASSERT_LT(u4, jg.graph.factor_count());

  std::vector<double> w(WeightLayout::kCount, 0.0);
  w[WeightLayout::kBeta4] = 1.0;
  // NIL states (assignment 0) must carry the low score.
  EXPECT_NEAR(jg.graph.LogPotential(u4, 0, w), kFactLow, 1e-12);
  // Some assignment must carry the high score (the known fact
  // <acme, owner_company, bolt>), and none may be outside {low, high}.
  bool found_high = false;
  const size_t assignments = jg.graph.AssignmentCount(u4);
  for (size_t a = 0; a < assignments; ++a) {
    double value = jg.graph.LogPotential(u4, a, w);
    EXPECT_TRUE(std::abs(value - kFactLow) < 1e-12 ||
                std::abs(value - kFactHigh) < 1e-12);
    if (std::abs(value - kFactHigh) < 1e-12) found_high = true;
  }
  EXPECT_TRUE(found_high);
}

TEST_F(GraphBuilderFixture, U5ConsistencyValues) {
  JoclGraph jg = BuildJoclGraph(problem_, cache_, ds_.ckb);
  // The U5 factor of subject pair 0 spans (es_i, es_j, x) over the
  // pair's representative mentions.
  ASSERT_EQ(jg.x_vars.size(), 1u);
  const SurfacePair& pair = problem_.subject_pairs[0];
  const FactorId u5 = FindFactor(
      jg.graph, {jg.es_vars[problem_.subject_rep[pair.a]],
                 jg.es_vars[problem_.subject_rep[pair.b]], jg.x_vars[0]});
  ASSERT_LT(u5, jg.graph.factor_count());

  std::vector<double> w(WeightLayout::kCount, 0.0);
  w[WeightLayout::kBeta5] = 1.0;
  // Assignment 0 = (NIL, NIL, x=0): two NILs are neutral evidence.
  EXPECT_NEAR(jg.graph.LogPotential(u5, 0, w), kConsistencyNeutral, 1e-12);
  // Assignment 1 = (NIL, NIL, x=1): still neutral.
  EXPECT_NEAR(jg.graph.LogPotential(u5, 1, w), kConsistencyNeutral, 1e-12);
  // Every cell is one of {low, neutral, high}.
  const size_t assignments = jg.graph.AssignmentCount(u5);
  bool found_high = false;
  bool found_low = false;
  for (size_t a = 0; a < assignments; ++a) {
    double value = jg.graph.LogPotential(u5, a, w);
    bool ok = std::abs(value - kConsistencyLow) < 1e-12 ||
              std::abs(value - kConsistencyNeutral) < 1e-12 ||
              std::abs(value - kConsistencyHigh) < 1e-12;
    EXPECT_TRUE(ok) << "assignment " << a << " value " << value;
    found_high |= std::abs(value - kConsistencyHigh) < 1e-12;
    found_low |= std::abs(value - kConsistencyLow) < 1e-12;
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
  SignalCache cache = SignalCache::ForProblem(problem, signals, ds.ckb);
  JoclGraph jg = BuildJoclGraph(problem, cache, ds.ckb);
  // The first U1 factor is the first factor of the transitive schedule
  // group (canonicalization factors, then triangles): a ternary factor
  // over three subject pair variables.
  ASSERT_GE(jg.schedule.size(), 2u);
  const FactorId u1 = jg.schedule[1].front();
  ASSERT_EQ(jg.graph.arity(u1), 3u);
  for (size_t e = jg.graph.scope_offset(u1); e < jg.graph.scope_offset(u1 + 1);
       ++e) {
    EXPECT_NE(std::find(jg.x_vars.begin(), jg.x_vars.end(),
                        jg.graph.scope_var(e)),
              jg.x_vars.end());
  }
  std::vector<double> w(WeightLayout::kCount, 0.0);
  w[WeightLayout::kBeta1] = 1.0;
  // 8 assignments over 3 binary vars; score depends only on #ones.
  for (size_t a = 0; a < 8; ++a) {
    size_t ones = static_cast<size_t>((a & 1) != 0) +
                  static_cast<size_t>((a & 2) != 0) +
                  static_cast<size_t>((a & 4) != 0);
    double expected = ones == 3   ? kTransitiveHigh
                      : ones == 2 ? kTransitiveLow
                                  : kTransitiveMid;
    EXPECT_NEAR(jg.graph.LogPotential(u1, a, w), expected, 1e-12)
        << "assignment " << a;
  }
}

TEST_F(GraphBuilderFixture, LinkingVariableStatesMatchCandidatesPlusNil) {
  JoclGraph jg = BuildJoclGraph(problem_, cache_, ds_.ckb);
  for (size_t t = 0; t < problem_.triples.size(); ++t) {
    EXPECT_EQ(jg.graph.cardinality(jg.es_vars[t]),
              problem_.subject_candidates[problem_.subject_of[t]].size() + 1);
    EXPECT_EQ(jg.graph.cardinality(jg.rp_vars[t]),
              problem_.predicate_candidates[problem_.predicate_of[t]].size() +
                  1);
  }
}

TEST_F(GraphBuilderFixture, ScheduleGroupsFollowPaperOrder) {
  JoclGraph jg = BuildJoclGraph(problem_, cache_, ds_.ckb);
  // Full graph: 5 groups (F-canon, U-trans may be empty, F-link, U4, U-cons).
  ASSERT_GE(jg.schedule.size(), 3u);
  // First group holds canonicalization factors (unary on pair vars).
  for (FactorId f : jg.schedule.front()) {
    EXPECT_EQ(jg.graph.arity(f), 1u);
  }
  // Last group holds the ternary consistency factors.
  for (FactorId f : jg.schedule.back()) {
    EXPECT_EQ(jg.graph.arity(f), 3u);
  }
}

// The scale-0.15 seed-11 world shared by the pin tests below.
class GraphBuilderPinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(
        GenerateReVerb45K(/*scale=*/0.15, /*seed=*/11).MoveValueOrDie());
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

Dataset* GraphBuilderPinTest::dataset_ = nullptr;
SignalBundle* GraphBuilderPinTest::signals_ = nullptr;

// The flat feature pools of a generated problem's shard graphs, built over
// the runtime's SignalCache, are pinned by hash: any change to a feature
// value (a reordered max, a different similarity call, a memo that is not
// bit-identical to the direct computation) moves it. The constant was
// recorded before the F5 relation rows were memoized in SignalCache.
TEST_F(GraphBuilderPinTest, CompiledFeaturePoolsArePinned) {
  const Dataset& ds = *dataset_;
  JoclProblem problem = BuildProblem(ds, *signals_, ds.test_triples);
  SignalCache cache = SignalCache::ForProblem(problem, *signals_, ds.ckb);
  ShardPlan plan = PartitionProblem(problem, /*max_shards=*/0);
  ASSERT_GT(plan.shards.size(), 1u);

  std::string bytes;
  auto append = [&bytes](const void* data, size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  for (const ProblemShard& shard : plan.shards) {
    JoclGraph jgraph = BuildJoclGraph(shard.problem, cache, ds.ckb);
    const FactorGraph& graph = jgraph.graph;
    // Field by field: FeatureEntry has padding bytes.
    for (const FeatureEntry& entry : graph.entry_pool()) {
      const uint64_t weight = entry.weight;
      append(&weight, sizeof(weight));
      append(&entry.value, sizeof(entry.value));
    }
    append(graph.uniform_pool().data(),
           graph.uniform_pool().size() * sizeof(double));
  }
  EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), 0x8a951cb3086cb7d1ull)
      << plan.shards.size() << " shards, " << bytes.size() << " bytes";
}

// One-shot inference on the same world is pinned by the hash of its
// marginal bytes and its exact update count: a change to the graph layout,
// the clamp reads or the message math moves one of them. The hash was
// recorded when sum-product updates moved to probability space; the
// update count did not move.
TEST_F(GraphBuilderPinTest, InferMarginalsArePinned) {
  JoclRuntime runtime;
  JoclResult result =
      runtime.Infer(*dataset_, *signals_, dataset_->test_triples)
          .MoveValueOrDie();
  std::string bytes;
  for (const std::vector<double>& marginal : result.diagnostics.marginals) {
    bytes.append(reinterpret_cast<const char*>(marginal.data()),
                 marginal.size() * sizeof(double));
  }
  EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), 0x353c88ae70bfcd06ull)
      << bytes.size() << " bytes";
  EXPECT_EQ(result.diagnostics.message_updates, 5975u);
}

// Sharded learning on the same world is pinned by its weight bytes. The
// clamped pass is the only consumer of clamps in the one-shot paths, so
// this covers the kernels' clamp reads. Recorded with the
// probability-space sum-product kernel, and recorded again when the
// learner's passes moved from eight staged sweeps to the residual
// schedule on the same 8-sweep budget (a different update order, so the
// weights move once).
TEST_F(GraphBuilderPinTest, LearnedWeightsArePinned) {
  ShardedLearner learner;
  LearnerResult learned =
      learner.Learn(*dataset_, *signals_, dataset_->validation_triples)
          .MoveValueOrDie();
  ASSERT_FALSE(learned.weights.empty());
  EXPECT_EQ(Fnv1a64(learned.weights.data(),
                    learned.weights.size() * sizeof(double)),
            0xeb32044e67d98ed3ull);
}

}  // namespace
}  // namespace jocl

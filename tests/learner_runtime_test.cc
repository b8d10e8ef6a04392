// Tests of the sharded learning runtime (core/sharded_learner.h): weight
// byte-identity across every threads/shards setting, gradient equivalence
// with the monolithic FactorGraphLearner, label scatter onto shard-local
// variable ids over a multi-component problem, the trace's
// objective/seconds fields, and the session's UpdateWeights hot-swap
// (retrain -> hot-swap byte-identical to a cold restart with the same
// weights).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "core/graph_builder.h"
#include "core/runtime.h"
#include "core/session.h"
#include "core/shard.h"
#include "core/sharded_learner.h"
#include "core/signal_cache.h"
#include "data/generator.h"
#include "graph/learner.h"
#include "support/factor_graph_learner.h"

namespace jocl {
namespace {

class LearnerRuntimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(
        GenerateReVerb45K(/*scale=*/0.25, /*seed=*/11).MoveValueOrDie());
    SignalOptions signal_options;
    signal_options.embedding_epochs = 2;
    signals_ = new SignalBundle(
        BuildSignals(*dataset_, signal_options).MoveValueOrDie());
    labeled_ = new std::vector<size_t>(
        dataset_->validation_triples.begin(),
        dataset_->validation_triples.begin() +
            std::min<size_t>(80, dataset_->validation_triples.size()));
  }
  static void TearDownTestSuite() {
    delete labeled_;
    delete signals_;
    delete dataset_;
  }

  /// Short learning schedule shared by the tests (the guarantees under
  /// test are iteration-count independent).
  static JoclOptions ShortLearning() {
    JoclOptions options;
    options.learner.iterations = 3;
    return options;
  }

  static LearnerResult LearnWith(size_t threads, size_t shards,
                                 LearnerRunStats* stats = nullptr) {
    RuntimeOptions runtime;
    runtime.num_threads = threads;
    runtime.max_shards = shards;
    ShardedLearner learner(ShortLearning(), runtime);
    return learner
        .Learn(*dataset_, *signals_, *labeled_, Jocl::DefaultWeights(), stats)
        .MoveValueOrDie();
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
  static std::vector<size_t>* labeled_;
};

Dataset* LearnerRuntimeTest::dataset_ = nullptr;
SignalBundle* LearnerRuntimeTest::signals_ = nullptr;
std::vector<size_t>* LearnerRuntimeTest::labeled_ = nullptr;

// ---------- determinism ------------------------------------------------------

TEST_F(LearnerRuntimeTest, WeightsByteIdenticalAcrossThreadsAndShards) {
  LearnerRunStats reference_stats;
  LearnerResult reference = LearnWith(1, 1, &reference_stats);
  ASSERT_FALSE(reference.trace.empty());
  ASSERT_GT(reference_stats.components, 1u);
  EXPECT_EQ(reference_stats.bins, 1u);

  for (size_t threads : {1u, 4u}) {
    for (size_t shards : {1u, 8u}) {
      LearnerRunStats stats;
      LearnerResult result = LearnWith(threads, shards, &stats);
      // Byte-identical: exact double equality, no tolerance.
      EXPECT_EQ(result.weights, reference.weights)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(result.converged, reference.converged);
      ASSERT_EQ(result.trace.size(), reference.trace.size());
      for (size_t i = 0; i < result.trace.size(); ++i) {
        EXPECT_EQ(result.trace[i].objective, reference.trace[i].objective);
        EXPECT_EQ(result.trace[i].gradient_max_norm,
                  reference.trace[i].gradient_max_norm);
      }
      // The knobs are execution-only; shape facts stay put.
      EXPECT_EQ(stats.components, reference_stats.components);
      EXPECT_EQ(stats.labels, reference_stats.labels);
    }
  }
  // Per-component binning (the default) is also identical.
  LearnerResult per_component = LearnWith(0, 0);
  EXPECT_EQ(per_component.weights, reference.weights);
}

TEST_F(LearnerRuntimeTest, TraceCarriesObjectiveAndSeconds) {
  LearnerResult result = LearnWith(1, 0);
  ASSERT_FALSE(result.trace.empty());
  for (const LearnerTrace& trace : result.trace) {
    EXPECT_TRUE(std::isfinite(trace.objective));
    // log p(Y^L) estimate: conditioning cannot exceed the free mass.
    EXPECT_LE(trace.objective, 1e-9);
    EXPECT_GE(trace.seconds, 0.0);
    EXPECT_GE(trace.gradient_max_norm, 0.0);
  }
}

// ---------- equivalence with the monolithic learner --------------------------

TEST_F(LearnerRuntimeTest, OneStepMatchesMonolithicLearner) {
  // One gradient step: the sharded reduction must equal the monolithic
  // accumulation up to float summation order (per-component partial sums
  // versus one factor-order sweep).
  JoclOptions options = ShortLearning();
  options.learner.iterations = 1;

  JoclProblem problem =
      BuildProblem(*dataset_, *signals_, *labeled_, options.problem);
  SignalCache cache =
      SignalCache::ForProblem(problem, *signals_, dataset_->ckb);
  JoclGraph jgraph =
      BuildJoclGraph(problem, cache, dataset_->ckb, options.builder);
  std::vector<std::pair<VariableId, size_t>> labels =
      BuildGoldLabels(*dataset_, problem, jgraph, options.builder);
  LearnerOptions learner_options = options.learner;
  learner_options.lbp.factor_schedule = jgraph.schedule;
  learner_options.lbp.num_threads = 1;
  FactorGraphLearner monolithic(learner_options);
  LearnerResult monolithic_result =
      monolithic.Learn(&jgraph.graph, labels, Jocl::DefaultWeights());

  ShardedLearner sharded(options, {});
  LearnerResult sharded_result =
      sharded.Learn(*dataset_, *signals_, *labeled_, Jocl::DefaultWeights())
          .MoveValueOrDie();

  ASSERT_EQ(sharded_result.weights.size(), monolithic_result.weights.size());
  for (size_t k = 0; k < sharded_result.weights.size(); ++k) {
    EXPECT_NEAR(sharded_result.weights[k], monolithic_result.weights[k],
                1e-10)
        << WeightLayout::Name(k);
  }
}

// ---------- label scatter ----------------------------------------------------

TEST_F(LearnerRuntimeTest, LabelsScatterCorrectlyAcrossComponents) {
  JoclOptions options;
  JoclProblem problem =
      BuildProblem(*dataset_, *signals_, *labeled_, options.problem);
  SignalCache cache =
      SignalCache::ForProblem(problem, *signals_, dataset_->ckb);
  ShardPlan plan = PartitionProblem(problem, /*max_shards=*/0);
  ASSERT_GT(plan.component_count, 1u);

  // Global labels keyed by variable id.
  JoclGraph global_graph =
      BuildJoclGraph(problem, cache, dataset_->ckb, options.builder);
  std::vector<std::pair<VariableId, size_t>> global_labels =
      BuildGoldLabels(*dataset_, problem, global_graph, options.builder);
  std::unordered_map<VariableId, size_t> global_state;
  for (const auto& [variable, state] : global_labels) {
    global_state[variable] = state;
  }

  // Every shard-local label must agree with the global label of the
  // variable it maps to through the shard's strictly-increasing merge
  // maps, and the shard labels must jointly cover the global set.
  size_t covered = 0;
  for (const ProblemShard& shard : plan.shards) {
    JoclGraph local_graph =
        BuildJoclGraph(shard.problem, cache, dataset_->ckb, options.builder);
    std::vector<std::pair<VariableId, size_t>> local_labels =
        BuildGoldLabels(*dataset_, shard.problem, local_graph,
                        options.builder);
    std::unordered_map<VariableId, size_t> local_state;
    for (const auto& [variable, state] : local_labels) {
      local_state[variable] = state;
    }
    covered += local_labels.size();

    auto expect_pairs = [&](const std::vector<VariableId>& local_vars,
                            const std::vector<VariableId>& global_vars,
                            const std::vector<size_t>& pair_map) {
      ASSERT_EQ(local_vars.size(), pair_map.size());
      for (size_t p = 0; p < pair_map.size(); ++p) {
        EXPECT_EQ(local_state.at(local_vars[p]),
                  global_state.at(global_vars[pair_map[p]]));
      }
    };
    expect_pairs(local_graph.x_vars, global_graph.x_vars,
                 shard.subject_pair_map);
    expect_pairs(local_graph.y_vars, global_graph.y_vars,
                 shard.predicate_pair_map);
    expect_pairs(local_graph.z_vars, global_graph.z_vars,
                 shard.object_pair_map);
    for (size_t t = 0; t < shard.triple_map.size(); ++t) {
      size_t global_t = shard.triple_map[t];
      EXPECT_EQ(local_state.at(local_graph.es_vars[t]),
                global_state.at(global_graph.es_vars[global_t]));
      EXPECT_EQ(local_state.at(local_graph.rp_vars[t]),
                global_state.at(global_graph.rp_vars[global_t]));
      EXPECT_EQ(local_state.at(local_graph.eo_vars[t]),
                global_state.at(global_graph.eo_vars[global_t]));
    }
  }
  EXPECT_EQ(covered, global_labels.size());
}

// ---------- session hot-swap -------------------------------------------------

TEST_F(LearnerRuntimeTest, UpdateWeightsEquivalentToColdRestart) {
  LearnerResult learned = LearnWith(0, 0);
  ASSERT_NE(learned.weights, Jocl::DefaultWeights());

  std::vector<size_t> stream(
      dataset_->test_triples.begin(),
      dataset_->test_triples.begin() +
          std::min<size_t>(200, dataset_->test_triples.size()));
  std::vector<size_t> first_half(stream.begin(),
                                 stream.begin() + stream.size() / 2);
  std::vector<size_t> second_half(stream.begin() + stream.size() / 2,
                                  stream.end());

  // Retrain path: ingest under uniform weights, then hot-swap.
  JoclSession hot(dataset_, signals_);
  size_t publishes = 0;
  hot.SetPublishCallback([&publishes](const JoclSession&) { ++publishes; });
  ASSERT_TRUE(hot.AddTriples(first_half).ok());
  ASSERT_TRUE(hot.AddTriples(second_half).ok());
  const size_t generation_before = hot.generation();
  const size_t publishes_before = publishes;

  SessionStats stats;
  ASSERT_TRUE(hot.UpdateWeights(learned.weights, &stats).ok());
  EXPECT_EQ(hot.generation(), generation_before + 1);
  EXPECT_EQ(publishes, publishes_before + 1);  // republished for serving
  EXPECT_EQ(stats.dirty_shards, stats.shards);  // everything re-inferred
  EXPECT_EQ(stats.clean_shards, 0u);
  // The active set is unchanged, so the hot-swap must take the front-end
  // fast path: the persisted problem and partition are reused verbatim —
  // no rebuild, no candidate-generation lookups.
  EXPECT_TRUE(stats.frontend_reused);
  EXPECT_EQ(stats.problem_cache_hits, 0u);
  EXPECT_EQ(stats.problem_cache_misses, 0u);
  EXPECT_EQ(hot.weights(), learned.weights);
  EXPECT_EQ(hot.result().weights, learned.weights);

  // Cold restart with the same weights.
  JoclSession cold(dataset_, signals_, {}, {}, learned.weights);
  ASSERT_TRUE(cold.AddTriples(stream).ok());

  EXPECT_EQ(hot.result().np_cluster, cold.result().np_cluster);
  EXPECT_EQ(hot.result().rp_cluster, cold.result().rp_cluster);
  EXPECT_EQ(hot.result().np_link, cold.result().np_link);
  EXPECT_EQ(hot.result().rp_link, cold.result().rp_link);
  EXPECT_EQ(hot.result().triples, cold.result().triples);
  EXPECT_EQ(hot.result().diagnostics.marginals,
            cold.result().diagnostics.marginals);

  // And both equal the one-shot runtime under the learned weights.
  JoclResult oneshot = JoclRuntime()
                           .Infer(*dataset_, *signals_, stream,
                                  learned.weights)
                           .MoveValueOrDie();
  EXPECT_EQ(hot.result().np_cluster, oneshot.np_cluster);
  EXPECT_EQ(hot.result().diagnostics.marginals,
            oneshot.diagnostics.marginals);
}

TEST_F(LearnerRuntimeTest, UpdateWeightsNoOpAndValidation) {
  JoclSession session(dataset_, signals_);
  std::vector<size_t> batch(dataset_->test_triples.begin(),
                            dataset_->test_triples.begin() +
                                std::min<size_t>(
                                    40, dataset_->test_triples.size()));
  ASSERT_TRUE(session.AddTriples(batch).ok());
  const size_t generation = session.generation();

  // Identical weights: no re-inference, no publish.
  size_t publishes = 0;
  session.SetPublishCallback(
      [&publishes](const JoclSession&) { ++publishes; });
  ASSERT_TRUE(session.UpdateWeights(session.weights()).ok());
  EXPECT_EQ(session.generation(), generation);
  EXPECT_EQ(publishes, 0u);

  // Wrong arity is rejected.
  EXPECT_FALSE(session.UpdateWeights({1.0, 2.0}).ok());
  EXPECT_EQ(session.generation(), generation);

  // Empty = DefaultWeights(), which the session already has: still a
  // no-op.
  ASSERT_TRUE(session.UpdateWeights({}).ok());
  EXPECT_EQ(session.generation(), generation);
}

}  // namespace
}  // namespace jocl

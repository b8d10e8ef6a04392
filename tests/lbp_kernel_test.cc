// Tests of the LBP kernels: the vectorized message kernel must be
// byte-identical to the scalar reference for every thread/shard count (on
// the probability-space path and on range-guarded log-space updates alike),
// large weights must not flush sum-product messages to zero, the
// residual-priority schedule must report an honest convergence certificate
// and decode-match a tight-tolerance run in fewer updates, and the
// Status/Result precondition paths must reject malformed inputs instead of
// running into undefined behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/runtime.h"
#include "core/sharded_learner.h"
#include "data/generator.h"
#include "graph/factor_graph.h"
#include "graph/flat_lbp.h"
#include "graph/inference.h"
#include "obs/metrics.h"
#include "support/exact.h"
#include "util/rng.h"

namespace jocl {
namespace {

FeatureTable FixedTable(std::vector<double> log_potentials) {
  return FeatureTable::Uniform(0, std::move(log_potentials));
}

// Heterogeneous multi-component graph (same shape the engine tests use):
// chains of mixed cardinality, a loopy square, a ternary island, an
// isolated variable.
FactorGraph MakeFragmentedGraph(Rng* rng) {
  FactorGraph g;
  g.set_weight_count(1);
  auto pair_table = [&](size_t ca, size_t cb) {
    std::vector<double> table(ca * cb);
    for (double& v : table) v = rng->UniformDouble(-1.0, 1.0);
    return FixedTable(std::move(table));
  };
  for (size_t chain = 0; chain < 3; ++chain) {
    VariableId prev = g.AddVariable(2 + chain % 2);
    for (size_t i = 1; i < 4; ++i) {
      VariableId v = g.AddVariable(2 + (chain + i) % 3);
      g.AddFactor({prev, v}, pair_table(g.cardinality(prev),
                                        g.cardinality(v)))
          .ValueOrDie();
      prev = v;
    }
  }
  std::vector<VariableId> square;
  for (size_t i = 0; i < 4; ++i) square.push_back(g.AddVariable(2));
  for (size_t i = 0; i < 4; ++i) {
    g.AddFactor({square[i], square[(i + 1) % 4]}, pair_table(2, 2))
        .ValueOrDie();
  }
  VariableId ta = g.AddVariable(2);
  VariableId tb = g.AddVariable(3);
  VariableId tc = g.AddVariable(2);
  std::vector<double> ternary(12);
  for (double& v : ternary) v = rng->UniformDouble(-1.0, 1.0);
  g.AddFactor({ta, tb, tc}, FixedTable(std::move(ternary))).ValueOrDie();
  g.AddVariable(3);
  return g;
}

// The head-component worst case in miniature: one giant loopy component —
// a backbone chain with skewed cross links, unary evidence, and a
// sprinkling of ternary factors — plus a few small satellite components.
FactorGraph MakeHeadHeavyGraph(Rng* rng, size_t head_vars) {
  FactorGraph g;
  g.set_weight_count(1);
  auto random_table = [&](size_t states) {
    std::vector<double> table(states);
    for (double& v : table) v = rng->UniformDouble(-1.5, 1.5);
    return FixedTable(std::move(table));
  };
  std::vector<VariableId> head;
  for (size_t i = 0; i < head_vars; ++i) {
    head.push_back(g.AddVariable(2 + i % 7));  // cards 2..8
  }
  auto card = [&](VariableId v) { return g.cardinality(v); };
  // Backbone chain keeps the component connected.
  for (size_t i = 1; i < head.size(); ++i) {
    g.AddFactor({head[i - 1], head[i]},
                random_table(card(head[i - 1]) * card(head[i])))
        .ValueOrDie();
  }
  // Skewed cross links: low-index "head entity" variables collect most of
  // the degree, like the giant canonicalization component does.
  for (size_t i = 1; i < head.size(); ++i) {
    const size_t hub = static_cast<size_t>(
        rng->UniformUint64(std::max<size_t>(1, i / 4)));
    const VariableId other = head[hub == i ? i - 1 : i];
    g.AddFactor({head[hub], other},
                random_table(card(head[hub]) * card(other)))
        .ValueOrDie();
  }
  // Unary evidence on every third variable, ternary ties on every fifth.
  for (size_t i = 0; i < head.size(); i += 3) {
    g.AddFactor({head[i]}, random_table(card(head[i]))).ValueOrDie();
  }
  for (size_t i = 5; i + 2 < head.size(); i += 5) {
    g.AddFactor({head[i], head[i + 1], head[i + 2]},
                random_table(card(head[i]) * card(head[i + 1]) *
                             card(head[i + 2])))
        .ValueOrDie();
  }
  // Satellite components.
  for (size_t s = 0; s < 3; ++s) {
    VariableId a = g.AddVariable(3);
    VariableId b = g.AddVariable(2);
    g.AddFactor({a, b}, random_table(6)).ValueOrDie();
  }
  return g;
}

LbpResult RunEngine(const FactorGraph& g, const std::vector<double>& w,
                    LbpOptions options) {
  FlatLbpEngine engine(&g, &w, options);
  return engine.Run();
}

// ---------- byte identity: vectorized kernel vs scalar reference ------------

TEST(KernelIdentityTest, VectorizedMatchesReferenceBitForBit) {
  Rng rng(17);
  const std::vector<double> weights = {1.0};
  std::vector<FactorGraph> graphs;
  graphs.push_back(MakeFragmentedGraph(&rng));
  graphs.push_back(MakeHeadHeavyGraph(&rng, 60));
  for (const FactorGraph& graph : graphs) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      LbpOptions reference;
      reference.num_threads = 1;
      reference.kernel = LbpKernel::kScalarReference;
      const LbpResult expected = RunEngine(graph, weights, reference);

      LbpOptions vectorized = reference;
      vectorized.num_threads = threads;
      vectorized.kernel = LbpKernel::kVectorized;
      const LbpResult actual = RunEngine(graph, weights, vectorized);

      // Exact equality, not tolerance: the vectorized kernel performs the
      // reference's floating-point operations in the reference's order,
      // so no bit may differ.
      EXPECT_EQ(actual.marginals, expected.marginals)
          << threads << " threads";
      EXPECT_EQ(actual.iterations, expected.iterations);
      EXPECT_EQ(actual.converged, expected.converged);
      EXPECT_EQ(actual.final_residual, expected.final_residual);
      EXPECT_EQ(actual.message_updates, expected.message_updates);
    }
  }
}

TEST(KernelIdentityTest, VectorizedMatchesReferenceUnderClamps) {
  Rng rng(29);
  FactorGraph graph = MakeHeadHeavyGraph(&rng, 40);
  // Clamp a spread of variables (the learner's conditioned pass).
  for (VariableId v = 0; v < graph.variable_count(); v += 7) {
    ASSERT_TRUE(graph.Clamp(v, v % graph.cardinality(v)).ok());
  }
  const std::vector<double> weights = {1.0};
  LbpOptions reference;
  reference.kernel = LbpKernel::kScalarReference;
  const LbpResult expected = RunEngine(graph, weights, reference);
  LbpOptions vectorized = reference;
  vectorized.kernel = LbpKernel::kVectorized;
  vectorized.num_threads = 4;
  const LbpResult actual = RunEngine(graph, weights, vectorized);
  EXPECT_EQ(actual.marginals, expected.marginals);
  EXPECT_EQ(actual.final_residual, expected.final_residual);
}

// Weights x50 push many updates past the range guard, so the guarded
// log-space path runs beside the probability-space one; both kernels must
// take the same guard decisions and agree bit for bit.
TEST(KernelIdentityTest, VectorizedMatchesReferenceUnderLargeWeights) {
  Rng rng(53);
  const std::vector<double> weights = {50.0};
  std::vector<FactorGraph> graphs;
  graphs.push_back(MakeFragmentedGraph(&rng));
  graphs.push_back(MakeHeadHeavyGraph(&rng, 60));
  graphs.push_back(MakeHeadHeavyGraph(&rng, 40));
  for (VariableId v = 0; v < graphs.back().variable_count(); v += 7) {
    ASSERT_TRUE(graphs.back().Clamp(v, v % graphs.back().cardinality(v)).ok());
  }
  size_t guarded = 0;
  for (const FactorGraph& graph : graphs) {
    LbpOptions reference;
    reference.kernel = LbpKernel::kScalarReference;
    const LbpResult expected = RunEngine(graph, weights, reference);

    LbpOptions vectorized = reference;
    vectorized.num_threads = 4;
    vectorized.kernel = LbpKernel::kVectorized;
    const LbpResult actual = RunEngine(graph, weights, vectorized);

    EXPECT_EQ(actual.marginals, expected.marginals);
    EXPECT_EQ(actual.final_residual, expected.final_residual);
    EXPECT_EQ(actual.message_updates, expected.message_updates);
    EXPECT_EQ(actual.log_space_updates, expected.log_space_updates);
    guarded += actual.log_space_updates;
  }
  // The guarded path must have run for the identity above to cover it.
  EXPECT_GT(guarded, 0u);
}

// The full sharded runtime: kernel choice must not change a single output
// bit for any (shards, threads) configuration on a generated world.
TEST(KernelRuntimeTest, ShardedRuntimeByteIdenticalAcrossKernels) {
  Dataset dataset =
      GenerateReVerb45K(/*scale=*/0.2, /*seed=*/13).MoveValueOrDie();
  SignalOptions signal_options;
  signal_options.embedding_epochs = 2;
  SignalBundle signals =
      BuildSignals(dataset, signal_options).MoveValueOrDie();

  JoclOptions reference_options;
  reference_options.inference.kernel = LbpKernel::kScalarReference;
  RuntimeOptions mono;
  mono.max_shards = 1;
  mono.num_threads = 1;
  JoclRuntime reference(reference_options, mono);
  JoclResult expected =
      reference.Infer(dataset, signals, dataset.test_triples)
          .MoveValueOrDie();

  for (size_t shards : {size_t{1}, size_t{8}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      JoclOptions options;  // kernel defaults to kVectorized
      RuntimeOptions runtime_options;
      runtime_options.max_shards = shards;
      runtime_options.num_threads = threads;
      JoclRuntime runtime(options, runtime_options);
      JoclResult result =
          runtime.Infer(dataset, signals, dataset.test_triples)
              .MoveValueOrDie();
      EXPECT_EQ(result.np_cluster, expected.np_cluster)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(result.rp_cluster, expected.rp_cluster);
      EXPECT_EQ(result.np_link, expected.np_link);
      EXPECT_EQ(result.triples, expected.triples);
      EXPECT_EQ(result.diagnostics.marginals, expected.diagnostics.marginals);
      EXPECT_EQ(result.diagnostics.final_residual,
                expected.diagnostics.final_residual);
    }
  }
}

// A tree (chains of mixed cardinality joined through a ternary factor) is
// exact under BP, so at weights large enough to flush probability-space
// terms to zero the guarded kernel must still match brute-force
// enumeration, with every marginal finite and none a uniform fallback.
TEST(LargeWeightTest, SumProductMatchesExactUnderLargeWeights) {
  Rng rng(59);
  FactorGraph tree;
  tree.set_weight_count(1);
  auto random_table = [&](size_t states) {
    std::vector<double> table(states);
    for (double& v : table) v = rng.UniformDouble(-1.0, 1.0);
    return FixedTable(std::move(table));
  };
  const VariableId a = tree.AddVariable(2);
  const VariableId b = tree.AddVariable(3);
  const VariableId c = tree.AddVariable(2);
  tree.AddFactor({a, b, c}, random_table(12)).ValueOrDie();
  for (VariableId root : {a, b, c}) {
    VariableId prev = root;
    for (size_t i = 0; i < 3; ++i) {
      const VariableId v = tree.AddVariable(2 + (root + i) % 3);
      tree.AddFactor({prev, v}, random_table(tree.cardinality(prev) *
                                             tree.cardinality(v)))
          .ValueOrDie();
      prev = v;
    }
    tree.AddFactor({prev}, random_table(tree.cardinality(prev))).ValueOrDie();
  }

  for (double scale : {50.0, 200.0, 1000.0}) {
    const std::vector<double> weights = {scale};
    ExactEngine exact(&tree, &weights);
    exact.Run();
    LbpOptions options;
    options.max_iterations = 60;
    FlatLbpEngine engine(&tree, &weights, options);
    const LbpResult result = engine.Run();
    EXPECT_TRUE(result.converged) << "x" << scale;
    // x50 stays within the probability-space range on this tree; the
    // larger scales must go through the guard.
    if (scale > 50.0) {
      EXPECT_GT(result.log_space_updates, 0u) << "x" << scale;
    }
    for (VariableId v = 0; v < tree.variable_count(); ++v) {
      const std::vector<double>& expected = exact.Marginal(v);
      const std::vector<double>& actual = result.marginals[v];
      bool uniform = true;
      for (size_t x = 0; x < tree.cardinality(v); ++x) {
        EXPECT_TRUE(std::isfinite(actual[x])) << "x" << scale << " v" << v;
        EXPECT_NEAR(actual[x], expected[x], 5e-3)
            << "x" << scale << " v" << v << " state " << x;
        uniform = uniform && actual[x] == 1.0 / tree.cardinality(v);
      }
      EXPECT_FALSE(uniform) << "x" << scale << " v" << v;
    }
  }
}

// The range guard is silent at learned weights on a generated world and
// reports its log-space updates, through the runtime stats and the shared
// metric, once the weights are scaled up.
TEST(KernelRuntimeTest, LogSpaceUpdatesCountGuardedUpdates) {
  Dataset dataset =
      GenerateReVerb45K(/*scale=*/0.15, /*seed=*/11).MoveValueOrDie();
  SignalOptions signal_options;
  signal_options.embedding_epochs = 2;
  SignalBundle signals =
      BuildSignals(dataset, signal_options).MoveValueOrDie();
  std::vector<double> weights =
      ShardedLearner()
          .Learn(dataset, signals, dataset.validation_triples)
          .MoveValueOrDie()
          .weights;
  Counter* counter = MetricsRegistry::Global().AddCounter(
      "jocl_lbp_log_space_updates_total", "", "");

  JoclRuntime runtime;
  RuntimeStats stats;
  uint64_t before = counter->Value();
  JoclResult learned =
      runtime.Infer(dataset, signals, dataset.test_triples, weights, &stats)
          .MoveValueOrDie();
  EXPECT_EQ(stats.log_space_updates, 0u);
  EXPECT_EQ(learned.diagnostics.log_space_updates, 0u);
  EXPECT_EQ(counter->Value(), before);

  for (double& w : weights) w *= 50.0;
  before = counter->Value();
  JoclResult scaled =
      runtime.Infer(dataset, signals, dataset.test_triples, weights, &stats)
          .MoveValueOrDie();
  EXPECT_GT(stats.log_space_updates, 0u);
  EXPECT_EQ(scaled.diagnostics.log_space_updates, stats.log_space_updates);
  EXPECT_EQ(counter->Value() - before, stats.log_space_updates);
}

// ---------- residual schedule ------------------------------------------------

TEST(ResidualScheduleTest, CertificateWithinToleranceAndDecodeMatches) {
  Rng rng(31);
  const std::vector<double> weights = {1.0};
  std::vector<FactorGraph> graphs;
  graphs.push_back(MakeFragmentedGraph(&rng));
  graphs.push_back(MakeHeadHeavyGraph(&rng, 60));
  for (const FactorGraph& graph : graphs) {
    // The reference: the same schedule run to a far tighter tolerance on
    // a large budget.
    LbpOptions tight;
    tight.tolerance = 1e-10;
    tight.max_iterations = 1000;
    FlatLbpEngine tight_engine(&graph, &weights, tight);
    const LbpResult exact = tight_engine.Run();
    const std::vector<size_t> exact_decode = tight_engine.Decode();
    // An unconverged reference would make the decode match meaningless.
    ASSERT_TRUE(exact.converged);

    LbpOptions residual;
    residual.max_iterations = 60;
    FlatLbpEngine residual_engine(&graph, &weights, residual);
    const LbpResult approx = residual_engine.Run();

    // The certificate is honest: converged means every pending factor
    // residual is below tolerance at stop.
    EXPECT_TRUE(approx.converged);
    EXPECT_LT(approx.final_residual, residual.tolerance);
    EXPECT_GT(approx.residual_pops, 0u);
    // Stopping at the default tolerance reaches a decode-equivalent
    // fixed point...
    EXPECT_EQ(residual_engine.Decode(), exact_decode);
    // ...before spending its update budget.
    EXPECT_LT(approx.message_updates,
              residual.max_iterations * graph.factor_count());
    for (size_t v = 0; v < graph.variable_count(); ++v) {
      for (size_t x = 0; x < graph.cardinality(v); ++x) {
        EXPECT_NEAR(approx.marginals[v][x], exact.marginals[v][x], 5e-3);
      }
    }
  }
}

TEST(ResidualScheduleTest, HonorsClampsAndBudget) {
  Rng rng(37);
  FactorGraph graph = MakeHeadHeavyGraph(&rng, 30);
  ASSERT_TRUE(graph.Clamp(0, 1).ok());
  ASSERT_TRUE(graph.Clamp(9, 0).ok());
  const std::vector<double> weights = {1.0};

  LbpOptions residual;
  FlatLbpEngine engine(&graph, &weights, residual);
  const LbpResult result = engine.Run();
  // Clamped variables keep their delta marginals under the schedule.
  EXPECT_DOUBLE_EQ(result.marginals[0][1], 1.0);
  EXPECT_DOUBLE_EQ(result.marginals[9][0], 1.0);
  // The budget caps updates at max_iterations sweeps' worth.
  size_t scheduled_factors = 0;
  for (FactorId f = 0; f < graph.factor_count(); ++f) {
    if (graph.arity(f) != 0) ++scheduled_factors;
  }
  EXPECT_LE(result.message_updates,
            residual.max_iterations * scheduled_factors);
}

TEST(ResidualScheduleTest, DeterministicAcrossThreadCounts) {
  Rng rng(41);
  FactorGraph graph = MakeFragmentedGraph(&rng);
  const std::vector<double> weights = {1.0};
  LbpOptions residual;
  residual.num_threads = 1;
  const LbpResult one = RunEngine(graph, weights, residual);
  residual.num_threads = 4;
  const LbpResult four = RunEngine(graph, weights, residual);
  // Components run their queues sequentially, so thread count changes
  // nothing — the approximate schedule is still deterministic.
  EXPECT_EQ(one.marginals, four.marginals);
  EXPECT_EQ(one.message_updates, four.message_updates);
  EXPECT_EQ(one.residual_pops, four.residual_pops);
  EXPECT_EQ(one.final_residual, four.final_residual);
}

// ---------- Status/Result precondition paths --------------------------------

TEST(GraphValidationTest, ValidateRejectsMalformedGraphs) {
  // Weight reference beyond weight_count (weights are late-bound, so
  // AddFactor cannot catch this; Validate must).
  {
    FactorGraph g;
    g.set_weight_count(1);
    VariableId a = g.AddVariable(2);
    g.AddFactor({a}, FeatureTable::Uniform(5, {0.0, 1.0})).ValueOrDie();
    Status status = g.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  // Same for sparse feature entries.
  {
    FactorGraph g;
    g.set_weight_count(2);
    VariableId a = g.AddVariable(2);
    FeatureTable sparse(2);
    sparse.Add(0, 0, 1.0);
    sparse.Add(1, 7, -1.0);  // weight 7 out of range
    g.AddFactor({a}, std::move(sparse)).ValueOrDie();
    EXPECT_FALSE(g.Validate().ok());
  }
  // A zero-cardinality variable.
  {
    FactorGraph g;
    g.AddVariable(0);
    EXPECT_EQ(g.Validate().code(), StatusCode::kInvalidArgument);
  }
  // A well-formed graph passes.
  {
    Rng rng(43);
    FactorGraph g = MakeFragmentedGraph(&rng);
    EXPECT_TRUE(g.Validate().ok());
  }
}

TEST(GraphValidationTest, EngineValidateChecksRunPreconditions) {
  Rng rng(47);
  FactorGraph g = MakeFragmentedGraph(&rng);
  const std::vector<double> good_weights = {1.0};
  const std::vector<double> no_weights;

  FlatLbpEngine ok_engine(&g, &good_weights);
  EXPECT_TRUE(ok_engine.Validate().ok());

  FlatLbpEngine short_engine(&g, &no_weights);
  const Status status = short_engine.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);

  ExactEngine exact_ok(&g, &good_weights);
  EXPECT_TRUE(exact_ok.Validate().ok());
  ExactEngine exact_short(&g, &no_weights);
  EXPECT_FALSE(exact_short.Validate().ok());
}

}  // namespace
}  // namespace jocl

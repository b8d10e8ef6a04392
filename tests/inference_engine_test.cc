// Tests of the unified inference layer: the FactorGraph CSR form, the
// InferenceEngine backends, and the sequential/parallel equivalence the
// engine design guarantees (components are independent sub-problems over
// disjoint arena slices, so thread count must not change a single bit).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "graph/factor_graph.h"
#include "graph/flat_lbp.h"
#include "graph/inference.h"
#include "graph/learner.h"
#include "support/exact.h"
#include "support/factor_graph_learner.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace jocl {
namespace {

FeatureTable FixedTable(std::vector<double> log_potentials) {
  return FeatureTable::Uniform(0, std::move(log_potentials));
}

// A deliberately heterogeneous multi-component graph: chains of mixed
// cardinality, a loopy square, a ternary-factor island and an isolated
// variable. Returns per-component anchor variables via out-params.
FactorGraph MakeFragmentedGraph(Rng* rng, std::vector<VariableId>* vars,
                                std::vector<FactorId>* factors) {
  FactorGraph g;
  g.set_weight_count(1);
  auto pair_table = [&](size_t ca, size_t cb) {
    std::vector<double> table(ca * cb);
    for (double& v : table) v = rng->UniformDouble(-1.0, 1.0);
    return FixedTable(std::move(table));
  };
  // Three chains with mixed cardinalities.
  for (size_t chain = 0; chain < 3; ++chain) {
    VariableId prev = g.AddVariable(2 + chain % 2);
    vars->push_back(prev);
    for (size_t i = 1; i < 4; ++i) {
      VariableId v = g.AddVariable(2 + (chain + i) % 3);
      vars->push_back(v);
      factors->push_back(
          g.AddFactor({prev, v},
                      pair_table(g.cardinality(prev),
                                 g.cardinality(v)))
              .ValueOrDie());
      prev = v;
    }
  }
  // A loopy square.
  std::vector<VariableId> square;
  for (size_t i = 0; i < 4; ++i) square.push_back(g.AddVariable(2));
  vars->insert(vars->end(), square.begin(), square.end());
  for (size_t i = 0; i < 4; ++i) {
    factors->push_back(
        g.AddFactor({square[i], square[(i + 1) % 4]}, pair_table(2, 2))
            .ValueOrDie());
  }
  // A ternary island.
  VariableId ta = g.AddVariable(2);
  VariableId tb = g.AddVariable(2);
  VariableId tc = g.AddVariable(2);
  vars->insert(vars->end(), {ta, tb, tc});
  std::vector<double> ternary(8);
  for (double& v : ternary) v = rng->UniformDouble(-1.0, 1.0);
  factors->push_back(
      g.AddFactor({ta, tb, tc}, FixedTable(std::move(ternary))).ValueOrDie());
  // An isolated variable (own component, no factors).
  vars->push_back(g.AddVariable(3));
  return g;
}

// ---------- the flat FactorGraph layout --------------------------------------

TEST(FlatGraphTest, CsrLayoutMatchesScopes) {
  FactorGraph g;
  g.set_weight_count(2);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(3);
  VariableId c = g.AddVariable(2);
  FactorId f0 = g.AddFactor({a, b}, FixedTable(std::vector<double>(6, 0.0)))
                    .ValueOrDie();
  FactorId f1 = g.AddFactor({b, c}, FixedTable(std::vector<double>(6, 0.0)))
                    .ValueOrDie();

  EXPECT_EQ(g.variable_count(), 3u);
  EXPECT_EQ(g.factor_count(), 2u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.total_assignments(), 12u);
  EXPECT_EQ(g.assignment_offset(f1), 6u);

  // Scope CSR: f0 -> edges {a, b}, f1 -> edges {b, c}.
  EXPECT_EQ(g.scope_offset(f0), 0u);
  EXPECT_EQ(g.scope_offset(f1), 2u);
  EXPECT_EQ(g.scope_var(0), a);
  EXPECT_EQ(g.scope_var(1), b);
  EXPECT_EQ(g.scope_var(2), b);
  EXPECT_EQ(g.scope_var(3), c);
  EXPECT_EQ(g.edge_factor(1), f0);
  EXPECT_EQ(g.edge_factor(2), f1);

  // Row-major strides, last slot fastest: f0 over (2,3) -> strides (3,1).
  EXPECT_EQ(g.slot_stride(0), 3u);
  EXPECT_EQ(g.slot_stride(1), 1u);
  // f1 over (3,2) -> strides (2,1).
  EXPECT_EQ(g.slot_stride(2), 2u);
  EXPECT_EQ(g.slot_stride(3), 1u);

  // Lanes are padded to kLaneDoubles per edge and per variable.
  EXPECT_EQ(g.edge_lane_offset(1), kLaneDoubles);
  EXPECT_EQ(g.total_edge_lane_states(), 4 * kLaneDoubles);
  EXPECT_EQ(g.var_lane_offset(c), 2 * kLaneDoubles);
  EXPECT_EQ(g.total_var_lane_states(), 3 * kLaneDoubles);
  EXPECT_EQ(g.max_arity(), 2u);
  EXPECT_EQ(g.max_factor_lane_states(), 2 * kLaneDoubles);

  // The engine's attachment CSR inverts the scopes: b touches edges 1, 2.
  const std::vector<double> weights = {0.0, 0.0};
  FlatLbpEngine engine(&g, &weights);
  EXPECT_EQ(engine.AttachedEdges(b), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(engine.AttachedEdges(a), (std::vector<uint32_t>{0}));

  // One connected component covering everything.
  EXPECT_EQ(engine.component_count(), 1u);
  EXPECT_EQ(engine.ComponentVariables(0).size(), 3u);
  EXPECT_EQ(engine.ComponentFactors(0).size(), 2u);
}

TEST(FlatGraphTest, FlatFeaturePoolsPreserveLogPotentials) {
  FactorGraph g;
  g.set_weight_count(3);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(3);
  // A sparse table with irregular entry lists...
  FeatureTable sparse(6);
  sparse.Add(0, 0, 1.5);
  sparse.Add(0, 2, -0.5);
  sparse.Add(3, 1, 2.0);
  sparse.Add(5, 2, 0.25);
  const FeatureTable sparse_copy = sparse;
  ASSERT_TRUE(g.AddFactor({a, b}, std::move(sparse)).ok());
  // ...and a uniform one.
  const FeatureTable uniform = FeatureTable::Uniform(1, {0.1, 0.2, 0.3});
  ASSERT_TRUE(g.AddFactor({b}, uniform).ok());

  const std::vector<double> weights = {0.7, -1.1, 0.4};
  const FeatureTable* tables[] = {&sparse_copy, &uniform};
  for (FactorId f = 0; f < g.factor_count(); ++f) {
    for (size_t x = 0; x < g.AssignmentCount(f); ++x) {
      EXPECT_DOUBLE_EQ(g.LogPotential(f, x, weights),
                       tables[f]->LogPotential(x, weights))
          << "factor " << f << " assignment " << x;
    }
  }
  // The bulk table agrees with the per-assignment accessor.
  std::vector<double> table;
  g.ComputeLogPotentials(weights, &table);
  ASSERT_EQ(table.size(), g.total_assignments());
  for (FactorId f = 0; f < g.factor_count(); ++f) {
    for (size_t x = 0; x < g.AssignmentCount(f); ++x) {
      EXPECT_DOUBLE_EQ(table[g.assignment_offset(f) + x],
                       g.LogPotential(f, x, weights));
    }
  }
  // Uniform tables stay compact: one pool value per assignment, no entries.
  EXPECT_EQ(g.uniform_pool().size(), 3u);
  EXPECT_EQ(g.entry_pool().size(), 4u);
}

TEST(FlatGraphTest, ComponentsPartitionVariablesAndFactors) {
  Rng rng(13);
  std::vector<VariableId> vars;
  std::vector<FactorId> factors;
  FactorGraph g = MakeFragmentedGraph(&rng, &vars, &factors);
  const std::vector<double> weights = {1.0};
  FlatLbpEngine engine(&g, &weights);
  const std::vector<size_t> labels = FactorGraphComponents(g);
  // 3 chains + square + ternary island + isolated variable = 6 components.
  ASSERT_EQ(engine.component_count(), 6u);
  size_t variables = 0;
  size_t scheduled = 0;
  // Component lists agree with the per-variable labels.
  for (size_t k = 0; k < engine.component_count(); ++k) {
    for (uint32_t v : engine.ComponentVariables(k)) {
      EXPECT_EQ(labels[v], k);
      ++variables;
    }
    for (uint32_t f : engine.ComponentFactors(k)) {
      for (size_t e = g.scope_offset(f); e < g.scope_offset(f + 1); ++e) {
        EXPECT_EQ(labels[g.scope_var(e)], k);
      }
      ++scheduled;
    }
  }
  EXPECT_EQ(variables, g.variable_count());
  EXPECT_EQ(scheduled, g.factor_count());
}

// ---------- FeatureTable::Add guard ------------------------------------------

TEST(FeatureTableTest, AddOnUniformTableIsRejected) {
  FeatureTable table = FeatureTable::Uniform(2, {0.1, 0.2});
#ifdef NDEBUG
  // Release builds ignore the invalid call instead of indexing into the
  // empty sparse storage (the old undefined behavior).
  table.Add(0, 0, 5.0);
  EXPECT_TRUE(table.is_uniform());
  EXPECT_EQ(table.assignment_count(), 2u);
  const std::vector<double> weights = {0.0, 0.0, 3.0};
  EXPECT_DOUBLE_EQ(table.LogPotential(0, weights), 0.3);
#else
  EXPECT_DEATH(table.Add(0, 0, 5.0), "uniform");
#endif
}

// ---------- sequential vs parallel equivalence -------------------------------

// The acceptance bar: parallel execution must reproduce single-threaded
// marginals *exactly* — same per-component schedules, same arithmetic,
// disjoint arenas — on a multi-component graph with clamps and a staged
// factor schedule.
TEST(EngineEquivalenceTest, ParallelMarginalsBitIdenticalWithClampsAndStages) {
  Rng rng(47);
  std::vector<VariableId> vars;
  std::vector<FactorId> factors;
  FactorGraph g = MakeFragmentedGraph(&rng, &vars, &factors);
  // Clamp one variable in two different components.
  ASSERT_TRUE(g.Clamp(vars[1], 1).ok());
  ASSERT_TRUE(g.Clamp(vars[13], 0).ok());
  std::vector<double> w = {1.1};

  // A staged schedule whose groups span components (as jgraph.schedule
  // does): evens, then a few odds; the rest lands in the leftover group.
  LbpOptions options;
  options.max_iterations = 25;
  options.factor_schedule.resize(2);
  for (size_t i = 0; i < factors.size(); ++i) {
    if (i % 2 == 0) options.factor_schedule[0].push_back(factors[i]);
    if (i % 3 == 1) options.factor_schedule[1].push_back(factors[i]);
  }

  LbpOptions sequential = options;
  sequential.num_threads = 1;
  FlatLbpEngine seq_engine(&g, &w, sequential);
  LbpResult seq = seq_engine.Run();

  for (size_t threads : {2u, 4u, 8u, 16u}) {
    LbpOptions parallel = options;
    parallel.num_threads = threads;
    FlatLbpEngine par_engine(&g, &w, parallel);
    LbpResult par = par_engine.Run();
    // Exact equality, not tolerance: identical schedules over disjoint
    // arena slices must produce identical bits.
    EXPECT_EQ(par.marginals, seq.marginals) << threads << " threads";
    EXPECT_EQ(par_engine.component_count(), seq_engine.component_count());
    EXPECT_EQ(par.iterations, seq.iterations);
    EXPECT_EQ(par.converged, seq.converged);
    EXPECT_EQ(par.final_residual, seq.final_residual);
    EXPECT_EQ(par_engine.Decode(), seq_engine.Decode());
  }

  // Clamped variables keep delta marginals in every mode.
  EXPECT_DOUBLE_EQ(seq.marginals[vars[1]][1], 1.0);
  EXPECT_DOUBLE_EQ(seq.marginals[vars[13]][0], 1.0);
}

TEST(EngineEquivalenceTest, ExpectedFeaturesBitIdenticalAcrossThreadCounts) {
  Rng rng(53);
  std::vector<VariableId> vars;
  std::vector<FactorId> factors;
  FactorGraph g = MakeFragmentedGraph(&rng, &vars, &factors);
  std::vector<double> w = {0.8};

  LbpOptions sequential;
  sequential.num_threads = 1;
  FlatLbpEngine seq(&g, &w, sequential);
  seq.Run();
  std::vector<double> seq_expect(1, 0.0);
  seq.AccumulateExpectedFeatures(&seq_expect);

  LbpOptions parallel;
  parallel.num_threads = 4;
  FlatLbpEngine par(&g, &w, parallel);
  par.Run();
  std::vector<double> par_expect(1, 0.0);
  par.AccumulateExpectedFeatures(&par_expect);

  EXPECT_EQ(seq_expect, par_expect);
}

// ---------- LBP vs exact through the common interface ------------------------

TEST(EngineInterfaceTest, LbpBackendsMatchExactOnTree) {
  // Small tree with a clamp: the factory's LBP engine, sequential or
  // component-parallel, must agree with exact (LBP is exact on trees).
  FactorGraph g;
  g.set_weight_count(1);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(3);
  VariableId c = g.AddVariable(2);
  ASSERT_TRUE(
      g.AddFactor({a, b}, FixedTable({0.3, -0.2, 0.8, 0.1, 0.6, -0.4})).ok());
  ASSERT_TRUE(
      g.AddFactor({b, c}, FixedTable({0.5, -0.1, 0.2, 0.7, -0.3, 0.4})).ok());
  ASSERT_TRUE(g.Clamp(c, 1).ok());
  std::vector<double> w = {1.4};

  auto exact = std::make_unique<ExactEngine>(&g, &w);
  LbpResult exact_result = exact->Run();
  EXPECT_TRUE(exact_result.converged);

  for (size_t threads : {1u, 4u}) {
    LbpOptions options;
    options.num_threads = threads;
    auto engine =
        CreateInferenceEngine(InferenceBackend::kLbp, &g, &w, options);
    LbpResult result = engine->Run();
    ASSERT_EQ(result.marginals.size(), exact_result.marginals.size());
    for (VariableId v = 0; v < g.variable_count(); ++v) {
      for (size_t s = 0; s < result.marginals[v].size(); ++s) {
        EXPECT_NEAR(result.marginals[v][s], exact_result.marginals[v][s],
                    1e-6)
            << "variable " << v << " state " << s;
      }
      // Interface marginal accessor agrees with the result payload.
      EXPECT_EQ(engine->Marginal(v), result.marginals[v]);
    }
    std::vector<double> lbp_expect(1, 0.0);
    std::vector<double> exact_expect(1, 0.0);
    engine->AccumulateExpectedFeatures(&lbp_expect);
    exact->AccumulateExpectedFeatures(&exact_expect);
    EXPECT_NEAR(lbp_expect[0], exact_expect[0], 1e-6);
  }
}

TEST(EngineInterfaceTest, ExactEngineFactorBeliefMatchesLbpOnTree) {
  FactorGraph g;
  g.set_weight_count(1);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(2);
  FactorId f =
      g.AddFactor({a, b}, FixedTable({0.9, -0.3, 0.2, 0.5})).ValueOrDie();
  std::vector<double> w = {1.0};

  FlatLbpEngine lbp(&g, &w);
  lbp.Run();
  ExactEngine exact(&g, &w);
  exact.Run();

  std::vector<double> lbp_belief = lbp.FactorBelief(f);
  std::vector<double> exact_belief = exact.FactorBelief(f);
  ASSERT_EQ(lbp_belief.size(), exact_belief.size());
  double total = 0.0;
  for (size_t x = 0; x < lbp_belief.size(); ++x) {
    EXPECT_NEAR(lbp_belief[x], exact_belief[x], 1e-9);
    total += exact_belief[x];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(EngineInterfaceTest, ExactEngineDecodeIsMap) {
  FactorGraph g;
  g.set_weight_count(1);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(2);
  // XOR-ish coupling where joint MAP differs from per-variable argmax:
  // P(0,1) and P(1,0) dominate jointly.
  ASSERT_TRUE(g.AddFactor({a, b}, FixedTable({0.0, 2.0, 1.9, 0.0})).ok());
  std::vector<double> w = {1.0};
  auto engine = std::make_unique<ExactEngine>(&g, &w);
  engine->Run();
  EXPECT_EQ(engine->Decode(), ExactMap(g, w));
}

// ---------- component partition + component-parallel LBP --------------------
// (disjoint-chain component detection and the engine's equality guarantees
// across thread counts.)

// Builds a graph of `k` disjoint chains of length `len`.
FactorGraph MakeChains(size_t k, size_t len, Rng* rng,
                       std::vector<VariableId>* vars) {
  FactorGraph g;
  g.set_weight_count(1);
  for (size_t c = 0; c < k; ++c) {
    VariableId prev = 0;
    for (size_t i = 0; i < len; ++i) {
      VariableId v = g.AddVariable(2);
      vars->push_back(v);
      double bias = rng->UniformDouble(0.0, 1.0);
      (void)g.AddFactor({v}, FixedTable({0.0, bias}));
      if (i > 0) {
        double s = rng->UniformDouble(0.2, 0.8);
        (void)g.AddFactor({prev, v}, FixedTable({s, 1.0 - s, 1.0 - s, s}));
      }
      prev = v;
    }
  }
  return g;
}

TEST(FactorGraphComponentsTest, DisjointChainsAreSeparate) {
  Rng rng(5);
  std::vector<VariableId> vars;
  FactorGraph g = MakeChains(3, 4, &rng, &vars);
  std::vector<size_t> components = FactorGraphComponents(g);
  ASSERT_EQ(components.size(), 12u);
  // Within a chain: same component; across chains: different.
  EXPECT_EQ(components[0], components[3]);
  EXPECT_EQ(components[4], components[7]);
  EXPECT_NE(components[0], components[4]);
  EXPECT_NE(components[4], components[8]);
}

TEST(FactorGraphComponentsTest, IsolatedVariableIsOwnComponent) {
  FactorGraph g;
  g.set_weight_count(1);
  g.AddVariable(2);
  VariableId b = g.AddVariable(2);
  VariableId c = g.AddVariable(2);
  (void)g.AddFactor({b, c}, FixedTable({0.1, 0.2, 0.3, 0.4}));
  std::vector<size_t> components = FactorGraphComponents(g);
  EXPECT_NE(components[0], components[1]);
  EXPECT_EQ(components[1], components[2]);
}

TEST(ComponentParallelLbpTest, MatchesSequentialEngineOnDisjointChains) {
  Rng rng(17);
  std::vector<VariableId> vars;
  FactorGraph g = MakeChains(6, 5, &rng, &vars);
  std::vector<double> w = {1.2};

  LbpOptions options;
  options.max_iterations = 40;
  FlatLbpEngine sequential(&g, &w, options);
  LbpResult reference = sequential.Run();

  options.num_threads = 4;
  FlatLbpEngine parallel(&g, &w, options);
  LbpResult result = parallel.Run();
  EXPECT_EQ(parallel.component_count(), 6u);
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.marginals.size(), reference.marginals.size());
  // Equality is exact: per-component schedules, arithmetic and arena
  // slices are identical in both modes.
  EXPECT_EQ(result.marginals, reference.marginals);
}

TEST(ComponentParallelLbpTest, SameMarginalsForAnyThreadCount) {
  Rng rng(31);
  std::vector<VariableId> vars;
  FactorGraph g = MakeChains(8, 4, &rng, &vars);
  std::vector<double> w = {0.9};
  FlatLbpEngine sequential(&g, &w);
  LbpResult reference = sequential.Run();
  for (size_t threads : {2u, 3u, 8u, 16u}) {
    LbpOptions options;
    options.num_threads = threads;
    FlatLbpEngine parallel(&g, &w, options);
    EXPECT_EQ(reference.marginals, parallel.Run().marginals)
        << threads << " threads";
  }
}

TEST(ComponentParallelLbpTest, HonorsClamps) {
  Rng rng(23);
  std::vector<VariableId> vars;
  FactorGraph g = MakeChains(2, 3, &rng, &vars);
  ASSERT_TRUE(g.Clamp(vars[0], 1).ok());
  std::vector<double> w = {1.0};
  LbpOptions options;
  options.num_threads = 2;
  FlatLbpEngine parallel(&g, &w, options);
  LbpResult result = parallel.Run();
  EXPECT_NEAR(result.marginals[vars[0]][1], 1.0, 1e-12);
}

TEST(ComponentParallelLbpTest, EmptyGraph) {
  FactorGraph g;
  std::vector<double> w = {1.0};
  LbpOptions options;
  options.num_threads = 4;
  FlatLbpEngine engine(&g, &w, options);
  LbpResult result = engine.Run();
  EXPECT_EQ(engine.component_count(), 0u);
  EXPECT_TRUE(result.converged);
}

// ---------- learner over pluggable backends ----------------------------------

TEST(LearnerBackendTest, ExactBackendReproducesAnalyticGradientStep) {
  FactorGraph g;
  g.set_weight_count(2);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(2);
  FeatureTable t(4);
  t.Add(0, 0, 1.0);
  t.Add(3, 0, 1.0);
  t.Add(1, 1, 1.0);
  t.Add(2, 1, 1.0);
  ASSERT_TRUE(g.AddFactor({a, b}, std::move(t)).ok());

  std::vector<double> w0 = {0.0, 0.0};
  ASSERT_TRUE(g.Clamp(a, 1).ok());
  ExactResult clamped = ExactInference(g, w0);
  g.UnclampAll();
  ExactResult free = ExactInference(g, w0);

  LearnerOptions options;
  options.learning_rate = 0.1;
  options.iterations = 1;
  FactorGraphLearner learner(options, &MakeEngine<ExactEngine>);
  LearnerResult result = learner.Learn(&g, {{a, 1}}, w0);
  for (size_t k = 0; k < 2; ++k) {
    const double expected_step =
        0.1 * (clamped.expected_features[k] - free.expected_features[k]);
    EXPECT_NEAR(result.weights[k], expected_step, 1e-12);
  }
}

}  // namespace
}  // namespace jocl

#include <gtest/gtest.h>

#include <cmath>

#include "graph/factor_graph.h"
#include "graph/flat_lbp.h"
#include "graph/learner.h"
#include "support/exact.h"
#include "support/factor_graph_learner.h"
#include "util/rng.h"

namespace jocl {
namespace {

// Builds a FeatureTable with one fixed log-potential per assignment, tied
// to weight 0 with weight value 1 (so log phi = value when w[0] = 1).
FeatureTable FixedTable(std::vector<double> log_potentials) {
  return FeatureTable::Uniform(0, std::move(log_potentials));
}

// ---------- FactorGraph ------------------------------------------------------

TEST(FactorGraphTest, AddVariablesAndFactors) {
  FactorGraph g;
  g.set_weight_count(1);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(3);
  EXPECT_EQ(g.variable_count(), 2u);
  auto f = g.AddFactor({a, b}, FixedTable(std::vector<double>(6, 0.0)));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(g.factor_count(), 1u);
  EXPECT_EQ(g.AssignmentCount(f.ValueOrDie()), 6u);
  EXPECT_EQ(g.arity(f.ValueOrDie()), 2u);
  EXPECT_EQ(g.scope_var(g.scope_offset(f.ValueOrDie())), a);
  EXPECT_EQ(g.scope_var(g.scope_offset(f.ValueOrDie()) + 1), b);
}

TEST(FactorGraphTest, RejectsBadScopesAndTables) {
  FactorGraph g;
  VariableId a = g.AddVariable(2);
  EXPECT_FALSE(g.AddFactor({99}, FixedTable({0.0, 0.0})).ok());
  EXPECT_FALSE(g.AddFactor({a}, FixedTable({0.0, 0.0, 0.0})).ok());
  // A rejected factor leaves the graph unchanged.
  EXPECT_EQ(g.factor_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.total_assignments(), 0u);
}

TEST(FactorGraphTest, RejectsScopesWhoseAssignmentCountOverflows) {
  // 2^64 assignments wrap to 0 in size_t; an unchecked product would let a
  // FeatureTable(0) through and corrupt the assignment offsets.
  FactorGraph g;
  std::vector<VariableId> scope;
  for (size_t i = 0; i < 64; ++i) scope.push_back(g.AddVariable(2));
  Result<FactorId> result = g.AddFactor(scope, FeatureTable(0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.factor_count(), 0u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(FactorGraphTest, ClampValidation) {
  FactorGraph g;
  VariableId a = g.AddVariable(2);
  EXPECT_FALSE(g.Clamp(99, 0).ok());
  EXPECT_FALSE(g.Clamp(a, 5).ok());
  EXPECT_TRUE(g.Clamp(a, 1).ok());
  EXPECT_TRUE(g.IsClamped(a));
  g.Unclamp(a);
  EXPECT_FALSE(g.IsClamped(a));
}

TEST(FactorGraphTest, AssignmentDecodeRowMajorLastFastest) {
  FactorGraph g;
  g.set_weight_count(1);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(3);
  FactorId f =
      g.AddFactor({a, b}, FixedTable(std::vector<double>(6, 0.0)))
          .ValueOrDie();
  std::vector<size_t> states;
  g.DecodeAssignment(f, 4, &states);  // 4 = 1*3 + 1
  EXPECT_EQ(states, (std::vector<size_t>{1, 1}));
  g.DecodeAssignment(f, 2, &states);  // 2 = 0*3 + 2
  EXPECT_EQ(states, (std::vector<size_t>{0, 2}));
}

// ---------- LogSumExp ---------------------------------------------------------

TEST(LogSumExpTest, MatchesDirectComputation) {
  EXPECT_NEAR(LogSumExp({std::log(1.0), std::log(3.0)}), std::log(4.0),
              1e-12);
  EXPECT_NEAR(LogSumExp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
  EXPECT_TRUE(std::isinf(LogSumExp({})));
}

// ---------- LBP vs exact -----------------------------------------------------

// Single unary factor: marginal must equal the softmax of potentials.
TEST(LbpTest, SingleVariableMatchesSoftmax) {
  FactorGraph g;
  g.set_weight_count(1);
  VariableId v = g.AddVariable(3);
  ASSERT_TRUE(g.AddFactor({v}, FixedTable({0.0, 1.0, 2.0})).ok());
  std::vector<double> w = {1.0};
  FlatLbpEngine engine(&g, &w);
  LbpResult result = engine.Run();
  EXPECT_TRUE(result.converged);
  double z = std::exp(0.0) + std::exp(1.0) + std::exp(2.0);
  EXPECT_NEAR(result.marginals[v][0], std::exp(0.0) / z, 1e-9);
  EXPECT_NEAR(result.marginals[v][1], std::exp(1.0) / z, 1e-9);
  EXPECT_NEAR(result.marginals[v][2], std::exp(2.0) / z, 1e-9);
}

// Chain (tree): LBP is exact.
TEST(LbpTest, ChainMatchesExactInference) {
  FactorGraph g;
  g.set_weight_count(1);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(2);
  VariableId c = g.AddVariable(2);
  // Pairwise attraction between neighbors + a bias on a.
  ASSERT_TRUE(g.AddFactor({a}, FixedTable({0.3, 0.9})).ok());
  ASSERT_TRUE(g.AddFactor({a, b}, FixedTable({0.8, 0.1, 0.1, 0.8})).ok());
  ASSERT_TRUE(g.AddFactor({b, c}, FixedTable({0.7, 0.2, 0.2, 0.7})).ok());
  std::vector<double> w = {1.3};
  ExactResult exact = ExactInference(g, w);
  FlatLbpEngine engine(&g, &w);
  LbpResult lbp = engine.Run();
  for (VariableId v : {a, b, c}) {
    for (size_t s = 0; s < 2; ++s) {
      EXPECT_NEAR(lbp.marginals[v][s], exact.marginals[v][s], 1e-6)
          << "variable " << v << " state " << s;
    }
  }
}

// Clamping conditions the distribution.
TEST(LbpTest, ClampedChainMatchesExact) {
  FactorGraph g;
  g.set_weight_count(1);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(2);
  ASSERT_TRUE(g.AddFactor({a, b}, FixedTable({1.0, 0.0, 0.0, 1.0})).ok());
  ASSERT_TRUE(g.Clamp(a, 1).ok());
  std::vector<double> w = {2.0};
  ExactResult exact = ExactInference(g, w);
  FlatLbpEngine engine(&g, &w);
  LbpResult lbp = engine.Run();
  EXPECT_NEAR(lbp.marginals[a][1], 1.0, 1e-12);
  EXPECT_NEAR(lbp.marginals[b][1], exact.marginals[b][1], 1e-9);
  // Strong coupling: b should strongly prefer state 1 given a = 1.
  EXPECT_GT(lbp.marginals[b][1], 0.8);
}

// Ternary factor handling (the shape of U1/U4/U5).
TEST(LbpTest, TernaryFactorTreeMatchesExact) {
  FactorGraph g;
  g.set_weight_count(1);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(2);
  VariableId c = g.AddVariable(2);
  // Reward all-equal assignments (000 and 111).
  std::vector<double> values(8, 0.1);
  values[0] = 0.9;
  values[7] = 0.9;
  ASSERT_TRUE(g.AddFactor({a, b, c}, FixedTable(values)).ok());
  ASSERT_TRUE(g.AddFactor({a}, FixedTable({0.0, 1.5})).ok());
  std::vector<double> w = {2.0};
  ExactResult exact = ExactInference(g, w);
  FlatLbpEngine engine(&g, &w);
  LbpResult lbp = engine.Run();
  for (VariableId v : {a, b, c}) {
    EXPECT_NEAR(lbp.marginals[v][1], exact.marginals[v][1], 1e-6);
  }
}

// Loopy graphs: LBP approximates; on small random graphs with moderate
// potentials it should stay close to exact.
class LoopyAccuracy : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LoopyAccuracy, CloseToExactOnSmallRandomLoopyGraphs) {
  Rng rng(GetParam());
  FactorGraph g;
  g.set_weight_count(1);
  constexpr size_t kVars = 5;
  std::vector<VariableId> vars;
  for (size_t i = 0; i < kVars; ++i) vars.push_back(g.AddVariable(2));
  // A ring plus one chord -> loops guaranteed.
  auto add_pair = [&](VariableId x, VariableId y) {
    double s = rng.UniformDouble(0.2, 0.8);
    ASSERT_TRUE(
        g.AddFactor({x, y}, FixedTable({s, 1.0 - s, 1.0 - s, s})).ok());
  };
  for (size_t i = 0; i < kVars; ++i) add_pair(vars[i], vars[(i + 1) % kVars]);
  add_pair(vars[0], vars[2]);
  for (size_t i = 0; i < kVars; ++i) {
    double bias = rng.UniformDouble(0.0, 1.0);
    ASSERT_TRUE(g.AddFactor({vars[i]}, FixedTable({0.0, bias})).ok());
  }
  std::vector<double> w = {1.0};
  ExactResult exact = ExactInference(g, w);
  LbpOptions options;
  options.max_iterations = 50;
  FlatLbpEngine engine(&g, &w, options);
  LbpResult lbp = engine.Run();
  for (size_t i = 0; i < kVars; ++i) {
    EXPECT_NEAR(lbp.marginals[vars[i]][1], exact.marginals[vars[i]][1], 0.05)
        << "seed " << GetParam() << " var " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoopyAccuracy,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// LBP is exact on trees — verify against brute force on random trees with
// mixed cardinalities, free and clamped.
class RandomTreeExactness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTreeExactness, MatchesBruteForce) {
  Rng rng(GetParam());
  FactorGraph g;
  g.set_weight_count(1);
  constexpr size_t kVars = 7;
  std::vector<VariableId> vars;
  std::vector<size_t> cards;
  for (size_t i = 0; i < kVars; ++i) {
    size_t card = 2 + rng.UniformUint64(3);  // 2..4 states
    cards.push_back(card);
    vars.push_back(g.AddVariable(card));
  }
  // Random tree: connect each node i > 0 to a random earlier node.
  for (size_t i = 1; i < kVars; ++i) {
    size_t parent = rng.UniformUint64(i);
    std::vector<double> table(cards[parent] * cards[i]);
    for (double& v : table) v = rng.UniformDouble(-1.0, 1.0);
    ASSERT_TRUE(
        g.AddFactor({vars[parent], vars[i]}, FixedTable(table)).ok());
  }
  // Random unary biases.
  for (size_t i = 0; i < kVars; ++i) {
    std::vector<double> table(cards[i]);
    for (double& v : table) v = rng.UniformDouble(-1.0, 1.0);
    ASSERT_TRUE(g.AddFactor({vars[i]}, FixedTable(table)).ok());
  }
  std::vector<double> w = {1.0};

  // Free pass.
  {
    ExactResult exact = ExactInference(g, w);
    LbpOptions options;
    options.max_iterations = 60;
    FlatLbpEngine engine(&g, &w, options);
    engine.Run();
    for (size_t i = 0; i < kVars; ++i) {
      for (size_t s = 0; s < cards[i]; ++s) {
        EXPECT_NEAR(engine.Marginal(vars[i])[s], exact.marginals[vars[i]][s],
                    1e-6);
      }
    }
  }
  // Clamped pass: clamp two random variables.
  ASSERT_TRUE(g.Clamp(vars[0], rng.UniformUint64(cards[0])).ok());
  size_t other = 1 + rng.UniformUint64(kVars - 1);
  ASSERT_TRUE(g.Clamp(vars[other], rng.UniformUint64(cards[other])).ok());
  {
    ExactResult exact = ExactInference(g, w);
    LbpOptions options;
    options.max_iterations = 60;
    FlatLbpEngine engine(&g, &w, options);
    engine.Run();
    for (size_t i = 0; i < kVars; ++i) {
      for (size_t s = 0; s < cards[i]; ++s) {
        EXPECT_NEAR(engine.Marginal(vars[i])[s], exact.marginals[vars[i]][s],
                    1e-6);
      }
    }
    // Expected features must match too (this is what the learner uses).
    std::vector<double> expected(1, 0.0);
    engine.AccumulateExpectedFeatures(&expected);
    // Sum over factors of E[h]; exact gives the same aggregate.
    EXPECT_NEAR(expected[0], exact.expected_features[0], 1e-6);
  }
  g.UnclampAll();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeExactness,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

TEST(LbpTest, ConvergesWithinPaperIterationBudget) {
  // The paper reports convergence within 20 sweeps; check a moderate graph.
  Rng rng(4);
  FactorGraph g;
  g.set_weight_count(1);
  std::vector<VariableId> vars;
  for (int i = 0; i < 30; ++i) vars.push_back(g.AddVariable(2));
  for (int i = 0; i + 1 < 30; ++i) {
    double s = rng.UniformDouble(0.3, 0.7);
    ASSERT_TRUE(g.AddFactor({vars[static_cast<size_t>(i)],
                             vars[static_cast<size_t>(i + 1)]},
                            FixedTable({s, 1.0 - s, 1.0 - s, s}))
                    .ok());
  }
  // Unary biases break the symmetry so messages are non-trivial.
  for (int i = 0; i < 30; ++i) {
    double bias = rng.UniformDouble(0.0, 1.0);
    ASSERT_TRUE(g.AddFactor({vars[static_cast<size_t>(i)],},
                            FixedTable({0.0, bias}))
                    .ok());
  }
  std::vector<double> w = {1.0};
  LbpOptions options;
  options.max_iterations = 20;
  FlatLbpEngine engine(&g, &w, options);
  LbpResult result = engine.Run();
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 20u);
  // The certificate: every residual still pending at stop is below the
  // tolerance, and the budget was not spent.
  EXPECT_LT(result.final_residual, options.tolerance);
  EXPECT_EQ(result.unconverged_components, 0u);
  EXPECT_GT(result.sweeps_skipped, 0u);
}

TEST(LbpTest, FactorScheduleEquivalentFixedPoint) {
  // A custom schedule must reach the same marginals as the default one on
  // a tree (both are exact at convergence).
  FactorGraph g;
  g.set_weight_count(1);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(2);
  VariableId c = g.AddVariable(2);
  FactorId f1 =
      g.AddFactor({a, b}, FixedTable({0.6, 0.2, 0.2, 0.6})).ValueOrDie();
  FactorId f2 =
      g.AddFactor({b, c}, FixedTable({0.7, 0.1, 0.1, 0.7})).ValueOrDie();
  FactorId f3 = g.AddFactor({a}, FixedTable({0.2, 0.9})).ValueOrDie();
  std::vector<double> w = {1.0};

  FlatLbpEngine default_engine(&g, &w);
  LbpResult default_result = default_engine.Run();

  LbpOptions staged;
  staged.factor_schedule = {{f3}, {f1}, {f2}};
  FlatLbpEngine staged_engine(&g, &w, staged);
  LbpResult staged_result = staged_engine.Run();

  for (VariableId v : {a, b, c}) {
    EXPECT_NEAR(default_result.marginals[v][1], staged_result.marginals[v][1],
                1e-6);
  }
}

TEST(LbpTest, DecodePicksArgmax) {
  FactorGraph g;
  g.set_weight_count(1);
  VariableId v = g.AddVariable(3);
  ASSERT_TRUE(g.AddFactor({v}, FixedTable({0.1, 2.0, 0.3})).ok());
  std::vector<double> w = {1.0};
  FlatLbpEngine engine(&g, &w);
  engine.Run();
  EXPECT_EQ(engine.Decode()[v], 1u);
}

// ---------- expected features & learning ------------------------------------------

TEST(LbpTest, ExpectedFeaturesMatchExactOnTree) {
  FactorGraph g;
  g.set_weight_count(2);
  VariableId a = g.AddVariable(2);
  VariableId b = g.AddVariable(2);
  FeatureTable t(4);
  t.Add(0, 0, 1.0);  // (0,0): feature0
  t.Add(3, 0, 1.0);  // (1,1): feature0  (agreement indicator)
  t.Add(1, 1, 1.0);  // (0,1): feature1
  t.Add(2, 1, 1.0);  // (1,0): feature1  (disagreement indicator)
  ASSERT_TRUE(g.AddFactor({a, b}, std::move(t)).ok());
  std::vector<double> w = {0.7, -0.2};
  ExactResult exact = ExactInference(g, w);
  FlatLbpEngine engine(&g, &w);
  engine.Run();
  std::vector<double> expected(2, 0.0);
  engine.AccumulateExpectedFeatures(&expected);
  EXPECT_NEAR(expected[0], exact.expected_features[0], 1e-9);
  EXPECT_NEAR(expected[1], exact.expected_features[1], 1e-9);
  EXPECT_NEAR(expected[0] + expected[1], 1.0, 1e-9);  // indicators partition
}

TEST(LearnerTest, LearnsAgreementWeightFromLabels) {
  // Two binary variables with an agreement/disagreement feature pair; all
  // labels agree -> the agreement weight should grow past the
  // disagreement weight.
  FactorGraph g;
  g.set_weight_count(2);
  std::vector<std::pair<VariableId, size_t>> labels;
  for (int i = 0; i < 6; ++i) {
    VariableId a = g.AddVariable(2);
    VariableId b = g.AddVariable(2);
    FeatureTable t(4);
    t.Add(0, 0, 1.0);
    t.Add(3, 0, 1.0);
    t.Add(1, 1, 1.0);
    t.Add(2, 1, 1.0);
    ASSERT_TRUE(g.AddFactor({a, b}, std::move(t)).ok());
    labels.emplace_back(a, 1);
    labels.emplace_back(b, 1);
  }
  LearnerOptions options;
  options.learning_rate = 0.3;
  options.iterations = 40;
  FactorGraphLearner learner(options);
  LearnerResult result = learner.Learn(&g, labels, {0.0, 0.0});
  EXPECT_GT(result.weights[0], result.weights[1]);
  // Gradient magnitude should shrink as learning converges.
  ASSERT_GE(result.trace.size(), 2u);
  EXPECT_LT(result.trace.back().gradient_max_norm,
            result.trace.front().gradient_max_norm);
  // Graph is left unclamped.
  for (VariableId v = 0; v < g.variable_count(); ++v) {
    EXPECT_FALSE(g.IsClamped(v));
  }
}

TEST(LearnerTest, GradientMatchesExactExpectationsOnTinyGraph) {
  // One factor, one labeled variable: the analytic gradient is
  // E[h | label] - E[h]; verify the first learner step moves weights by
  // lr * that difference.
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
  FactorGraphLearner learner(options);
  LearnerResult result = learner.Learn(&g, {{a, 1}}, w0);
  for (size_t k = 0; k < 2; ++k) {
    double expected_step = 0.1 * (clamped.expected_features[k] -
                                  free.expected_features[k]);
    EXPECT_NEAR(result.weights[k], expected_step, 1e-6);
  }
}

}  // namespace
}  // namespace jocl

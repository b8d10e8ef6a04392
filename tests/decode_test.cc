#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/decode.h"
#include "core/jocl.h"
#include "core/runtime.h"
#include "core/session.h"
#include "data/generator.h"
#include "support/decode_reference.h"
#include "util/rng.h"

namespace jocl {
namespace {

size_t ClusterCount(const std::vector<size_t>& labels) {
  return std::unordered_set<size_t>(labels.begin(), labels.end()).size();
}

TEST(ClusterPairGraphTest, EmptyGraphAllSingletons) {
  auto labels = ClusterPairGraph(4, {}, 0.5);
  EXPECT_EQ(labels.size(), 4u);
  EXPECT_EQ(ClusterCount(labels), 4u);
}

TEST(ClusterPairGraphTest, ConfidentEdgeMerges) {
  auto labels = ClusterPairGraph(3, {{0, 1, 0.9}}, 0.5);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(ClusterPairGraphTest, SubThresholdEdgeIgnored) {
  auto labels = ClusterPairGraph(2, {{0, 1, 0.49}}, 0.5);
  EXPECT_NE(labels[0], labels[1]);
}

TEST(ClusterPairGraphTest, ChainAssemblesWithoutCrossEdges) {
  // Spanning-chain clusters must still assemble: absent edges are neutral.
  std::vector<PairEdge> edges = {{0, 1, 0.9}, {1, 2, 0.9}, {2, 3, 0.9}};
  auto labels = ClusterPairGraph(4, edges, 0.5);
  EXPECT_EQ(ClusterCount(labels), 1u);
}

TEST(ClusterPairGraphTest, ContradictedMergeVetoed) {
  // Two tight pairs {0,1} and {2,3}; one strong bridge 1-2 but the other
  // observed cross edges (0-2, 0-3, 1-3) say "different" loudly. The
  // average of observed cross beliefs (0.95 + 0.05*3)/4 = 0.29 < 0.5, so
  // the bridge merge must be vetoed.
  std::vector<PairEdge> edges = {
      {0, 1, 0.99}, {2, 3, 0.99},                    // intra-cluster
      {1, 2, 0.95},                                  // the wrong bridge
      {0, 2, 0.05}, {0, 3, 0.05}, {1, 3, 0.05},      // contradictions
  };
  auto labels = ClusterPairGraph(4, edges, 0.5);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(ClusterPairGraphTest, SupportedMergeSurvivesVeto) {
  // Same topology but the cross edges agree with the bridge.
  std::vector<PairEdge> edges = {
      {0, 1, 0.99}, {2, 3, 0.99},
      {1, 2, 0.95},
      {0, 2, 0.8}, {0, 3, 0.8}, {1, 3, 0.8},
  };
  auto labels = ClusterPairGraph(4, edges, 0.5);
  EXPECT_EQ(ClusterCount(labels), 1u);
}

TEST(ClusterPairGraphTest, DuplicateEdgesKeepMaxWeight) {
  std::vector<PairEdge> edges = {{0, 1, 0.2}, {0, 1, 0.9}, {1, 0, 0.4}};
  auto labels = ClusterPairGraph(2, edges, 0.5);
  EXPECT_EQ(labels[0], labels[1]);
}

TEST(ClusterPairGraphTest, LabelsAreDense) {
  std::vector<PairEdge> edges = {{1, 3, 0.9}};
  auto labels = ClusterPairGraph(5, edges, 0.5);
  size_t max_label = 0;
  for (size_t l : labels) max_label = std::max(max_label, l);
  EXPECT_EQ(max_label + 1, ClusterCount(labels));
}

TEST(ClusterPairGraphTest, Deterministic) {
  Rng rng(9);
  std::vector<PairEdge> edges;
  for (int i = 0; i < 200; ++i) {
    size_t a = rng.UniformUint64(40);
    size_t b = rng.UniformUint64(40);
    if (a != b) edges.emplace_back(a, b, rng.UniformDouble());
  }
  auto first = ClusterPairGraph(40, edges, 0.5);
  auto second = ClusterPairGraph(40, edges, 0.5);
  EXPECT_EQ(first, second);
}

class ClusterPairGraphProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterPairGraphProperty, NeverCoarserThanTransitiveClosure) {
  // The veto only *blocks* merges, so the result partition must refine
  // the transitive closure of the confident edges.
  Rng rng(GetParam());
  constexpr size_t kN = 30;
  std::vector<PairEdge> edges;
  for (int i = 0; i < 120; ++i) {
    size_t a = rng.UniformUint64(kN);
    size_t b = rng.UniformUint64(kN);
    if (a != b) edges.emplace_back(a, b, rng.UniformDouble());
  }
  auto labels = ClusterPairGraph(kN, edges, 0.5);
  // Closure reference.
  std::vector<size_t> closure(kN);
  for (size_t i = 0; i < kN; ++i) closure[i] = i;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [a, b, w] : edges) {
      if (w < 0.5) continue;
      size_t lo = std::min(closure[a], closure[b]);
      if (closure[a] != lo || closure[b] != lo) {
        size_t from_a = closure[a];
        size_t from_b = closure[b];
        for (auto& c : closure) {
          if (c == from_a || c == from_b) c = lo;
        }
        changed = true;
      }
    }
  }
  // Same veto-cluster implies same closure-cluster.
  for (size_t i = 0; i < kN; ++i) {
    for (size_t j = i + 1; j < kN; ++j) {
      if (labels[i] == labels[j]) {
        EXPECT_EQ(closure[i], closure[j])
            << "veto clustering merged across closure components";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterPairGraphProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------- links: each mention keeps its own argmax --------------------------

// A three-triple problem: subject surfaces {a, b, c} and predicate
// surfaces {p, q, r}, one mention each, objects unlinked. Subject pair
// (a, b) and predicate pair (p, q) are decoded same-meaning with belief
// 0.9; a and c link to e1, b to e2, p and r to r1, q to r2, each with
// confidence 0.8. The decode clusters both pairs and leaves every link
// where its own linking variable put it: a head-count vote over the link
// groups (the paper's §3.5) would move b to e1 and q to r1.
TEST(DecodeLinkTest, SameMeaningPairsKeepTheirOwnLinks) {
  constexpr int64_t kE1 = 10;
  constexpr int64_t kE2 = 20;
  constexpr int64_t kR1 = 100;
  constexpr int64_t kR2 = 200;
  JoclProblem problem;
  problem.triples = {0, 1, 2};
  problem.subject_surfaces = {"a", "b", "c"};
  problem.predicate_surfaces = {"p", "q", "r"};
  problem.object_surfaces = {"x", "y", "z"};
  problem.subject_of = {0, 1, 2};
  problem.predicate_of = {0, 1, 2};
  problem.object_of = {0, 1, 2};
  problem.subject_rep = {0, 1, 2};
  problem.predicate_rep = {0, 1, 2};
  problem.object_rep = {0, 1, 2};
  problem.subject_pairs = {SurfacePair{0, 1, 0.8}};
  problem.predicate_pairs = {SurfacePair{0, 1, 0.8}};
  problem.subject_candidates = {{{kE1, 0.9}}, {{kE2, 0.9}}, {{kE1, 0.9}}};
  problem.predicate_candidates = {{{kR1, 0.9}}, {{kR2, 0.9}}, {{kR1, 0.9}}};
  problem.object_candidates.assign(3, {});

  JoclBeliefs beliefs;
  beliefs.x_state = {1};
  beliefs.x_marg = {{0.1, 0.9}};
  beliefs.y_state = {1};
  beliefs.y_marg = {{0.1, 0.9}};
  beliefs.es_state = {1, 1, 1};
  beliefs.es_marg = {{0.2, 0.8}, {0.2, 0.8}, {0.2, 0.8}};
  beliefs.rp_state = {1, 1, 1};
  beliefs.rp_marg = {{0.2, 0.8}, {0.2, 0.8}, {0.2, 0.8}};
  beliefs.eo_state = {0, 0, 0};
  beliefs.eo_marg = {{1.0}, {1.0}, {1.0}};

  JoclResult result;
  DecodeJointResult(problem, beliefs, GraphBuilderOptions{}, &result);
  EXPECT_EQ(result.np_cluster[0], result.np_cluster[2]);  // a ~ b
  EXPECT_EQ(result.rp_cluster[0], result.rp_cluster[1]);  // p ~ q
  EXPECT_EQ(result.np_link,
            (std::vector<int64_t>{kE1, kNilId, kE2, kNilId, kE1, kNilId}));
  EXPECT_EQ(result.rp_link, (std::vector<int64_t>{kR1, kR2, kR1}));
}

// ---------- oracle: the flat decode equals the hash-map reference ------------

// Few distinct weights make weight ties common, so the merge order's
// (a, b) tie-break is exercised. Sums of 0.1, 0.2 and 0.3 round
// differently in different orders ((0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)),
// and thresholds of 0.2 and 0.3 sit on their averages, so veto decisions
// also depend on the summation order. Duplicate edges (in either
// orientation) and self edges ride along.
std::vector<PairEdge> RandomPairGraph(Rng& rng, size_t n) {
  static const double kWeights[] = {0.1, 0.2, 0.3, 0.45, 0.5,
                                    0.55, 0.75, 0.95, 1.0};
  std::vector<PairEdge> edges;
  const size_t m = rng.UniformUint64(3 * n + 1);
  for (size_t i = 0; i < m; ++i) {
    const size_t a = rng.UniformUint64(n);
    const size_t b = rng.UniformUint64(n);
    const double w = rng.Bernoulli(0.8)
                         ? kWeights[rng.UniformUint64(std::size(kWeights))]
                         : rng.UniformDouble();
    edges.emplace_back(a, b, w);
    if (rng.Bernoulli(0.15)) {
      edges.emplace_back(b, a, kWeights[rng.UniformUint64(std::size(kWeights))]);
    }
  }
  return edges;
}

TEST(DecodeOracleTest, ClusterPairGraphMatchesReferenceOnRandomGraphs) {
  Rng rng(2025);
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t n = 1 + rng.UniformUint64(trial % 4 == 0 ? 60 : 12);
    const std::vector<PairEdge> edges = RandomPairGraph(rng, n);
    static const double kThresholds[] = {0.2, 0.3, 0.5};
    const double threshold = trial % 4 == 3 ? rng.UniformDouble(0.2, 0.8)
                                            : kThresholds[trial % 4];
    ASSERT_EQ(ClusterPairGraph(n, edges, threshold),
              ClusterPairGraphReference(n, edges, threshold))
        << "trial " << trial << ", n " << n << ", threshold " << threshold;
  }
}

// A random problem in BuildProblem's shape: surfaces in first-appearance
// order with first-mention representatives, sorted (a < b) pairs, small
// shared candidate pools (so links of paired surfaces collide), a few string
// collisions across the subject and object roles, and beliefs whose
// states are the first argmax of marginals drawn from few values.
struct RandomDecodeInput {
  JoclProblem problem;
  JoclBeliefs beliefs;
};

RandomDecodeInput RandomProblem(Rng& rng) {
  static const double kProbs[] = {0.1, 0.2, 0.5, 0.8, 0.85, 0.9};
  RandomDecodeInput input;
  JoclProblem& problem = input.problem;
  const size_t n = 1 + rng.UniformUint64(30);
  for (size_t t = 0; t < n; ++t) problem.triples.push_back(t * 3);
  auto role = [&](size_t vocabulary, std::vector<std::string>* surfaces,
                  std::vector<size_t>* of, std::vector<size_t>* rep) {
    std::vector<size_t> local(vocabulary, static_cast<size_t>(-1));
    for (size_t t = 0; t < n; ++t) {
      const size_t word = rng.UniformUint64(vocabulary);
      if (local[word] == static_cast<size_t>(-1)) {
        local[word] = surfaces->size();
        surfaces->push_back("w" + std::to_string(word));
        rep->push_back(t);
      }
      of->push_back(local[word]);
    }
  };
  role(2 + rng.UniformUint64(10), &problem.subject_surfaces,
       &problem.subject_of, &problem.subject_rep);
  role(2 + rng.UniformUint64(10), &problem.predicate_surfaces,
       &problem.predicate_of, &problem.predicate_rep);
  role(2 + rng.UniformUint64(10), &problem.object_surfaces, &problem.object_of,
       &problem.object_rep);
  auto pairs = [&](size_t n_surfaces, std::vector<SurfacePair>* out) {
    for (size_t a = 0; a < n_surfaces; ++a) {
      for (size_t b = a + 1; b < n_surfaces; ++b) {
        if (rng.Bernoulli(0.4)) out->push_back(SurfacePair{a, b, 0.6});
      }
    }
  };
  pairs(problem.subject_surfaces.size(), &problem.subject_pairs);
  pairs(problem.predicate_surfaces.size(), &problem.predicate_pairs);
  pairs(problem.object_surfaces.size(), &problem.object_pairs);
  auto entity_candidates = [&](size_t n_surfaces,
                               std::vector<std::vector<EntityCandidate>>* out) {
    out->resize(n_surfaces);
    for (auto& list : *out) {
      const size_t k = rng.UniformUint64(4);
      for (size_t c = 0; c < k; ++c) {
        list.push_back({static_cast<EntityId>(rng.UniformUint64(5)), 0.5});
      }
    }
  };
  entity_candidates(problem.subject_surfaces.size(),
                    &problem.subject_candidates);
  entity_candidates(problem.object_surfaces.size(), &problem.object_candidates);
  problem.predicate_candidates.resize(problem.predicate_surfaces.size());
  for (auto& list : problem.predicate_candidates) {
    const size_t k = rng.UniformUint64(4);
    for (size_t c = 0; c < k; ++c) {
      list.push_back({static_cast<RelationId>(rng.UniformUint64(4)), 0.5});
    }
  }

  auto marginal = [&](size_t states, std::vector<std::vector<double>>* marg,
                      std::vector<size_t>* state) {
    std::vector<double> m(states);
    for (double& v : m) v = kProbs[rng.UniformUint64(std::size(kProbs))];
    size_t best = 0;
    for (size_t x = 1; x < states; ++x) {
      if (m[x] > m[best]) best = x;
    }
    marg->push_back(std::move(m));
    state->push_back(best);
  };
  JoclBeliefs& beliefs = input.beliefs;
  for (size_t p = 0; p < problem.subject_pairs.size(); ++p) {
    marginal(2, &beliefs.x_marg, &beliefs.x_state);
  }
  for (size_t p = 0; p < problem.predicate_pairs.size(); ++p) {
    marginal(2, &beliefs.y_marg, &beliefs.y_state);
  }
  for (size_t p = 0; p < problem.object_pairs.size(); ++p) {
    marginal(2, &beliefs.z_marg, &beliefs.z_state);
  }
  for (size_t t = 0; t < n; ++t) {
    marginal(problem.subject_candidates[problem.subject_of[t]].size() + 1,
             &beliefs.es_marg, &beliefs.es_state);
    marginal(problem.predicate_candidates[problem.predicate_of[t]].size() + 1,
             &beliefs.rp_marg, &beliefs.rp_state);
    marginal(problem.object_candidates[problem.object_of[t]].size() + 1,
             &beliefs.eo_marg, &beliefs.eo_state);
  }
  return input;
}

void ExpectDecodesEqual(const JoclResult& got, const JoclResult& want) {
  EXPECT_EQ(got.np_cluster, want.np_cluster);
  EXPECT_EQ(got.rp_cluster, want.rp_cluster);
  EXPECT_EQ(got.np_link, want.np_link);
  EXPECT_EQ(got.rp_link, want.rp_link);
}

TEST(DecodeOracleTest, DecodeMatchesReferenceOnRandomProblems) {
  Rng rng(77);
  for (int trial = 0; trial < 1500; ++trial) {
    RandomDecodeInput input = RandomProblem(rng);
    GraphBuilderOptions builder;
    switch (trial % 5) {
      case 3:  // canonicalization ablated: JOCLlink fallback
        builder.enable_canonicalization = false;
        input.beliefs.x_marg.clear();
        input.beliefs.x_state.clear();
        input.beliefs.y_marg.clear();
        input.beliefs.y_state.clear();
        input.beliefs.z_marg.clear();
        input.beliefs.z_state.clear();
        break;
      case 4:  // linking ablated: every link NIL
        builder.enable_linking = false;
        input.beliefs.es_marg.clear();
        input.beliefs.es_state.clear();
        input.beliefs.rp_marg.clear();
        input.beliefs.rp_state.clear();
        input.beliefs.eo_marg.clear();
        input.beliefs.eo_state.clear();
        break;
      default:
        break;
    }
    JoclResult got, want;
    DecodeJointResult(input.problem, input.beliefs, builder, &got);
    DecodeJointResultReference(input.problem, input.beliefs, builder, &want);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectDecodesEqual(got, want);
    if (::testing::Test::HasFailure()) return;
  }
}

// The decode of real beliefs: every generation of a session over a small
// generated world, and a one-shot Infer, each re-decoded by the reference
// from the result's own marginals.
class DecodeOracleWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(
        GenerateReVerb45K(/*scale=*/0.2, /*seed=*/5).MoveValueOrDie());
    SignalOptions signal_options;
    signal_options.embedding_epochs = 2;
    signals_ = new SignalBundle(
        BuildSignals(*dataset_, signal_options).MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete signals_;
    delete dataset_;
  }

  static void ExpectMatchesReference(const JoclProblem& problem,
                                     const JoclResult& result,
                                     const JoclOptions& options) {
    const JoclBeliefs beliefs = BeliefsOfResult(problem, result, options);
    JoclResult want;
    DecodeJointResultReference(problem, beliefs, options.builder, &want);
    ExpectDecodesEqual(result, want);
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
};

Dataset* DecodeOracleWorldTest::dataset_ = nullptr;
SignalBundle* DecodeOracleWorldTest::signals_ = nullptr;

TEST_F(DecodeOracleWorldTest, EverySessionGenerationMatchesReference) {
  const std::vector<size_t>& split = dataset_->test_triples;
  ASSERT_GT(split.size(), 60u);
  // Hold out every 7th triple, prefill the rest, then add the held-out
  // triples in three batches and retract two of them again.
  std::vector<size_t> prefill, held;
  for (size_t i = 0; i < split.size(); ++i) {
    (i % 7 == 3 ? held : prefill).push_back(split[i]);
  }
  std::vector<std::vector<size_t>> batches(3);
  for (size_t i = 0; i < held.size(); ++i) batches[i % 3].push_back(held[i]);

  const JoclOptions options;
  JoclSession session(dataset_, signals_, options);
  ASSERT_TRUE(session.AddTriples(prefill).ok());
  ExpectMatchesReference(session.problem(), session.result(), options);
  for (const auto& batch : batches) {
    ASSERT_TRUE(session.AddTriples(batch).ok());
    ExpectMatchesReference(session.problem(), session.result(), options);
  }
  for (size_t b = 0; b < 2; ++b) {
    ASSERT_TRUE(session.RemoveTriples(batches[b]).ok());
    ExpectMatchesReference(session.problem(), session.result(), options);
  }
  EXPECT_EQ(session.generation(), 6u);
}

TEST_F(DecodeOracleWorldTest, OneShotInferMatchesReference) {
  const JoclOptions options;
  const JoclResult result = JoclRuntime(options)
                                .Infer(*dataset_, *signals_,
                                       dataset_->test_triples)
                                .MoveValueOrDie();
  const JoclProblem problem =
      BuildProblem(*dataset_, *signals_, dataset_->test_triples);
  ExpectMatchesReference(problem, result, options);
}

}  // namespace
}  // namespace jocl

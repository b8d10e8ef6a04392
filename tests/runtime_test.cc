// Tests of the sharded end-to-end runtime: the union-find problem
// partition, the signal cache's equivalence to the uncached bundle, and
// the acceptance bar — a byte-identical JoclResult for every
// (max_shards, num_threads) configuration, including the monolithic
// single-shard run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "core/runtime.h"
#include "core/shard.h"
#include "core/signal_cache.h"
#include "data/generator.h"
#include "text/similarity.h"

namespace jocl {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(
        GenerateReVerb45K(/*scale=*/0.25, /*seed=*/11).MoveValueOrDie());
    SignalOptions signal_options;
    signal_options.embedding_epochs = 2;
    signals_ = new SignalBundle(
        BuildSignals(*dataset_, signal_options).MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete signals_;
    delete dataset_;
  }

  static JoclProblem Problem() {
    return BuildProblem(*dataset_, *signals_, dataset_->test_triples);
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
};

Dataset* RuntimeTest::dataset_ = nullptr;
SignalBundle* RuntimeTest::signals_ = nullptr;

// ---------- PartitionProblem -------------------------------------------------

TEST_F(RuntimeTest, PartitionCoversTriplesAndPairsExactlyOnce) {
  JoclProblem problem = Problem();
  ShardPlan plan = PartitionProblem(problem, /*max_shards=*/0);
  ASSERT_GT(plan.component_count, 1u);
  EXPECT_EQ(plan.shards.size(), plan.component_count);

  std::vector<size_t> triple_seen(problem.triples.size(), 0);
  std::vector<size_t> pair_seen(problem.subject_pairs.size(), 0);
  for (const ProblemShard& shard : plan.shards) {
    for (size_t t : shard.triple_map) ++triple_seen[t];
    for (size_t p : shard.subject_pair_map) ++pair_seen[p];
    // Index maps are strictly increasing (local order == global order).
    EXPECT_TRUE(std::is_sorted(shard.triple_map.begin(),
                               shard.triple_map.end()));
    EXPECT_TRUE(std::is_sorted(shard.subject_pair_map.begin(),
                               shard.subject_pair_map.end()));
  }
  for (size_t count : triple_seen) EXPECT_EQ(count, 1u);
  for (size_t count : pair_seen) EXPECT_EQ(count, 1u);
}

TEST_F(RuntimeTest, ShardProblemsReindexConsistently) {
  JoclProblem problem = Problem();
  ShardPlan plan = PartitionProblem(problem, /*max_shards=*/0);
  for (const ProblemShard& shard : plan.shards) {
    const JoclProblem& local = shard.problem;
    ASSERT_EQ(local.triples.size(), shard.triple_map.size());
    for (size_t t = 0; t < local.triples.size(); ++t) {
      // Same dataset triple, same surface strings as the global problem.
      EXPECT_EQ(local.triples[t], problem.triples[shard.triple_map[t]]);
      EXPECT_EQ(local.subject_surfaces[local.subject_of[t]],
                problem.subject_surfaces
                    [problem.subject_of[shard.triple_map[t]]]);
    }
    for (size_t p = 0; p < local.subject_pairs.size(); ++p) {
      const SurfacePair& global_pair =
          problem.subject_pairs[shard.subject_pair_map[p]];
      EXPECT_EQ(shard.subject_surface_map[local.subject_pairs[p].a],
                global_pair.a);
      EXPECT_EQ(shard.subject_surface_map[local.subject_pairs[p].b],
                global_pair.b);
      EXPECT_EQ(local.subject_pairs[p].idf, global_pair.idf);
      EXPECT_EQ(local.subject_pairs[p].candidate_blocked,
                global_pair.candidate_blocked);
    }
  }
}

TEST_F(RuntimeTest, PartitionGroupingIsCappedAndDeterministic) {
  JoclProblem problem = Problem();
  ShardPlan capped = PartitionProblem(problem, /*max_shards=*/3);
  EXPECT_LE(capped.shards.size(), 3u);
  EXPECT_EQ(capped.component_count,
            PartitionProblem(problem, 0).component_count);
  ShardPlan again = PartitionProblem(problem, /*max_shards=*/3);
  ASSERT_EQ(again.shards.size(), capped.shards.size());
  for (size_t s = 0; s < capped.shards.size(); ++s) {
    EXPECT_EQ(again.shards[s].triple_map, capped.shards[s].triple_map);
  }
}

TEST_F(RuntimeTest, SingleShardIsTheWholeProblem) {
  JoclProblem problem = Problem();
  ShardPlan plan = PartitionProblem(problem, /*max_shards=*/1);
  ASSERT_EQ(plan.shards.size(), 1u);
  const JoclProblem& local = plan.shards[0].problem;
  EXPECT_EQ(local.triples, problem.triples);
  EXPECT_EQ(local.subject_surfaces, problem.subject_surfaces);
  EXPECT_EQ(local.subject_of, problem.subject_of);
  EXPECT_EQ(local.subject_rep, problem.subject_rep);
  EXPECT_EQ(local.predicate_surfaces, problem.predicate_surfaces);
  EXPECT_EQ(local.object_surfaces, problem.object_surfaces);
  ASSERT_EQ(local.subject_pairs.size(), problem.subject_pairs.size());
  for (size_t p = 0; p < local.subject_pairs.size(); ++p) {
    EXPECT_EQ(local.subject_pairs[p].a, problem.subject_pairs[p].a);
    EXPECT_EQ(local.subject_pairs[p].b, problem.subject_pairs[p].b);
  }
}

// ---------- SignalCache ------------------------------------------------------

TEST_F(RuntimeTest, SignalCacheMatchesBundleSemantics) {
  JoclProblem problem = Problem();
  SignalCache cache =
      SignalCache::ForProblem(problem, *signals_, dataset_->ckb);

  auto sample = [](size_t n) { return std::min<size_t>(n, 25); };
  const auto& nps = problem.subject_surfaces;
  for (size_t i = 0; i < sample(nps.size()); ++i) {
    for (size_t j = i + 1; j < sample(nps.size()); ++j) {
      // Discrete signals are exactly equal; Emb differs only by float
      // rounding (unit-normalize-then-dot vs cosine of raw sums).
      EXPECT_DOUBLE_EQ(cache.Ppdb(nps[i], nps[j]),
                       signals_->Ppdb(nps[i], nps[j]));
      EXPECT_NEAR(cache.Emb(nps[i], nps[j]), signals_->Emb(nps[i], nps[j]),
                  1e-6);
    }
  }
  const auto& rps = problem.predicate_surfaces;
  for (size_t i = 0; i < sample(rps.size()); ++i) {
    for (size_t j = i + 1; j < sample(rps.size()); ++j) {
      EXPECT_DOUBLE_EQ(cache.Amie(rps[i], rps[j]),
                       signals_->Amie(rps[i], rps[j]));
      EXPECT_DOUBLE_EQ(cache.Kbp(rps[i], rps[j]),
                       signals_->Kbp(rps[i], rps[j]));
    }
  }
}

/// F5's row computed the way the graph builder computes it without a
/// memo: the best match over the relation's name and every alias.
RelationRow DirectRelationRow(const SignalCache& cache, const CuratedKb& ckb,
                              const std::string& surface, RelationId rid) {
  const std::string& name = ckb.relation(rid).name;
  RelationRow row{NgramSimilarity(surface, name),
                  LevenshteinSimilarity(surface, name),
                  cache.Emb(surface, name), cache.Ppdb(surface, name)};
  for (const std::string& alias : ckb.RelationAliases(rid)) {
    row.ngram = std::max(row.ngram, NgramSimilarity(surface, alias));
    row.ld = std::max(row.ld, LevenshteinSimilarity(surface, alias));
    row.emb = std::max(row.emb, cache.Emb(surface, alias));
    row.ppdb = std::max(row.ppdb, cache.Ppdb(surface, alias));
  }
  return row;
}

/// Bitwise row equality (EXPECT_EQ on doubles would accept -0.0 == 0.0).
::testing::AssertionResult SameRowBits(const RelationRow& a,
                                       const RelationRow& b) {
  if (std::memcmp(&a, &b, sizeof(RelationRow)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "{" << a.ngram << ", " << a.ld << ", " << a.emb << ", " << a.ppdb
         << "} vs {" << b.ngram << ", " << b.ld << ", " << b.emb << ", "
         << b.ppdb << "}";
}

TEST_F(RuntimeTest, RelationRowMemoMatchesDirectComputation) {
  JoclProblem problem = Problem();
  const CuratedKb& ckb = dataset_->ckb;
  SignalCache cache = SignalCache::ForProblem(problem, *signals_, ckb);
  size_t rows = 0;
  size_t with_aliases = 0;
  for (size_t p = 0; p < problem.predicate_surfaces.size(); ++p) {
    const std::string& surface = problem.predicate_surfaces[p];
    for (const RelationCandidate& candidate :
         problem.predicate_candidates[p]) {
      const RelationRow* row =
          cache.FindRelationRow(cache.IdOf(surface), candidate.id);
      ASSERT_NE(row, nullptr) << surface;
      EXPECT_TRUE(SameRowBits(
          *row, DirectRelationRow(cache, ckb, surface, candidate.id)))
          << surface << " / " << ckb.relation(candidate.id).name;
      ++rows;
      if (!ckb.RelationAliases(candidate.id).empty()) ++with_aliases;
    }
  }
  EXPECT_GT(rows, 0u);
  EXPECT_GT(with_aliases, 0u);

  // Phrases alone register no pair, and a lookup never fills one.
  SignalCache phrases_only =
      SignalCache::ForPhrases(problem.predicate_surfaces, *signals_);
  for (size_t p = 0; p < problem.predicate_surfaces.size(); ++p) {
    for (const RelationCandidate& candidate :
         problem.predicate_candidates[p]) {
      EXPECT_EQ(phrases_only.FindRelationRow(p, candidate.id), nullptr);
    }
  }
}

TEST_F(RuntimeTest, AppendOnlyRelationRowsMatchAFreshCache) {
  // A long-lived cache fed batch by batch — RegisterProblem + Finalize per
  // growing prefix, as a session does — ends with the same rows as one
  // fresh ForProblem over the final problem.
  const CuratedKb& ckb = dataset_->ckb;
  const std::vector<size_t>& stream = dataset_->test_triples;
  SignalCache incremental;
  JoclProblem problem;
  for (size_t b = 1; b <= 4; ++b) {
    std::vector<size_t> prefix(stream.begin(),
                               stream.begin() + b * stream.size() / 4);
    problem = BuildProblem(*dataset_, *signals_, prefix);
    incremental.RegisterProblem(problem, ckb);
    incremental.Finalize(*signals_);
  }
  SignalCache fresh = SignalCache::ForProblem(problem, *signals_, ckb);
  for (size_t p = 0; p < problem.predicate_surfaces.size(); ++p) {
    const std::string& surface = problem.predicate_surfaces[p];
    for (const RelationCandidate& candidate :
         problem.predicate_candidates[p]) {
      const RelationRow* a =
          incremental.FindRelationRow(incremental.IdOf(surface), candidate.id);
      const RelationRow* b =
          fresh.FindRelationRow(fresh.IdOf(surface), candidate.id);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      EXPECT_TRUE(SameRowBits(*a, *b)) << surface;
    }
  }
}

TEST_F(RuntimeTest, SignalCacheFallsBackForUnknownPhrases) {
  SignalCache cache = SignalCache::ForPhrases({"alpha beta"}, *signals_);
  EXPECT_EQ(cache.IdOf("never registered"), SignalCache::kUnknown);
  EXPECT_DOUBLE_EQ(cache.Emb("alpha beta", "never registered"),
                   signals_->Emb("alpha beta", "never registered"));
  EXPECT_DOUBLE_EQ(cache.Kbp("never registered", "also unknown"),
                   signals_->Kbp("never registered", "also unknown"));
}

// ---------- the acceptance bar: byte-identical results -----------------------

TEST_F(RuntimeTest, ShardedRuntimeIsByteIdenticalToMonolithic) {
  JoclOptions options;
  RuntimeOptions monolithic;
  monolithic.max_shards = 1;
  monolithic.num_threads = 1;
  JoclRuntime reference(options, monolithic);
  JoclResult expected =
      reference.Infer(*dataset_, *signals_, dataset_->test_triples)
          .MoveValueOrDie();

  struct Config {
    size_t shards;
    size_t threads;
  };
  // {1, 4} drives the leftover-parallelism path: one shard, so the four
  // requested threads move inside the engine (component-parallel LBP).
  for (Config config :
       {Config{0, 1}, Config{0, 4}, Config{3, 2}, Config{1, 4}}) {
    RuntimeOptions runtime_options;
    runtime_options.max_shards = config.shards;
    runtime_options.num_threads = config.threads;
    JoclRuntime runtime(options, runtime_options);
    RuntimeStats stats;
    JoclResult result =
        runtime
            .Infer(*dataset_, *signals_, dataset_->test_triples, {}, &stats)
            .MoveValueOrDie();
    if (config.shards == 0) {
      EXPECT_GT(stats.shards, 1u);
    }

    // Exact equality, not tolerance: shard graphs are the monolithic
    // graph's connected components and decode runs globally, so no bit
    // may differ.
    EXPECT_EQ(result.np_cluster, expected.np_cluster)
        << config.shards << " shards, " << config.threads << " threads";
    EXPECT_EQ(result.rp_cluster, expected.rp_cluster);
    EXPECT_EQ(result.np_link, expected.np_link);
    EXPECT_EQ(result.rp_link, expected.rp_link);
    EXPECT_EQ(result.triples, expected.triples);
    EXPECT_EQ(result.weights, expected.weights);
    EXPECT_EQ(result.diagnostics.iterations, expected.diagnostics.iterations);
    EXPECT_EQ(result.diagnostics.converged, expected.diagnostics.converged);
    EXPECT_EQ(result.diagnostics.unconverged_components,
              expected.diagnostics.unconverged_components);
    EXPECT_EQ(result.diagnostics.final_residual,
              expected.diagnostics.final_residual);
    EXPECT_EQ(result.diagnostics.marginals, expected.diagnostics.marginals);
  }
}

TEST_F(RuntimeTest, InferWrapperMatchesRuntime) {
  JoclOptions options;
  options.runtime_threads = 2;
  Jocl jocl(options);
  JoclResult via_wrapper =
      jocl.Infer(*dataset_, *signals_, dataset_->test_triples)
          .MoveValueOrDie();
  RuntimeOptions runtime_options;
  runtime_options.num_threads = 2;
  JoclRuntime runtime(options, runtime_options);
  JoclResult direct =
      runtime.Infer(*dataset_, *signals_, dataset_->test_triples)
          .MoveValueOrDie();
  EXPECT_EQ(via_wrapper.np_cluster, direct.np_cluster);
  EXPECT_EQ(via_wrapper.np_link, direct.np_link);
  EXPECT_EQ(via_wrapper.rp_cluster, direct.rp_cluster);
  EXPECT_EQ(via_wrapper.rp_link, direct.rp_link);
  EXPECT_EQ(via_wrapper.diagnostics.marginals, direct.diagnostics.marginals);
}

TEST_F(RuntimeTest, AblationsAreShardInvariantToo) {
  // The JOCLlink fallback decode and the canonicalization-only path also
  // go through the sharded runtime; they must be execution-invariant.
  for (const JoclOptions& options :
       {JoclOptions::CanonicalizationOnly(), JoclOptions::LinkingOnly()}) {
    RuntimeOptions monolithic;
    monolithic.max_shards = 1;
    monolithic.num_threads = 1;
    JoclResult expected =
        JoclRuntime(options, monolithic)
            .Infer(*dataset_, *signals_, dataset_->test_triples)
            .MoveValueOrDie();
    RuntimeOptions sharded;
    sharded.max_shards = 0;
    sharded.num_threads = 4;
    JoclResult result =
        JoclRuntime(options, sharded)
            .Infer(*dataset_, *signals_, dataset_->test_triples)
            .MoveValueOrDie();
    EXPECT_EQ(result.np_cluster, expected.np_cluster);
    EXPECT_EQ(result.rp_cluster, expected.rp_cluster);
    EXPECT_EQ(result.np_link, expected.np_link);
    EXPECT_EQ(result.rp_link, expected.rp_link);
    EXPECT_EQ(result.diagnostics.marginals, expected.diagnostics.marginals);
  }
}

TEST_F(RuntimeTest, EmptySubsetProducesEmptyResult) {
  JoclRuntime runtime;
  RuntimeStats stats;
  JoclResult result =
      runtime.Infer(*dataset_, *signals_, {}, {}, &stats).MoveValueOrDie();
  EXPECT_TRUE(result.np_cluster.empty());
  EXPECT_TRUE(result.np_link.empty());
  EXPECT_EQ(stats.shards, 0u);
  EXPECT_TRUE(result.diagnostics.converged);
}

}  // namespace
}  // namespace jocl

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_set>

#include "core/feature_config.h"
#include "core/graph_builder.h"
#include "core/jocl.h"
#include "core/problem.h"
#include "core/signal_cache.h"
#include "core/signals.h"
#include "data/generator.h"
#include "scratch_problem.h"
#include "text/similarity.h"

namespace jocl {
namespace {

// One shared small data set + signals for the whole binary (word2vec
// training is the expensive part; build it once).
class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.num_entities = 50;
    options.num_relations = 8;
    options.num_triples = 250;
    options.seed = 21;
    dataset_ = new Dataset(GenerateDataset(options, "core-test")
                               .MoveValueOrDie());
    SignalOptions signal_options;
    signal_options.embedding_epochs = 2;
    signals_ = new SignalBundle(
        BuildSignals(*dataset_, signal_options).MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete signals_;
    delete dataset_;
    signals_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
};

Dataset* CoreTest::dataset_ = nullptr;
SignalBundle* CoreTest::signals_ = nullptr;

// ---------- feature config -------------------------------------------------------

TEST(FeatureConfigTest, WeightLayoutNamesDistinct) {
  std::unordered_set<std::string> names;
  for (size_t w = 0; w < WeightLayout::kCount; ++w) {
    names.insert(WeightLayout::Name(w));
  }
  EXPECT_EQ(names.size(), WeightLayout::kCount);
  EXPECT_EQ(WeightLayout::Name(999), "unknown");
}

TEST(FeatureConfigTest, VariantMasksMatchTable5) {
  FeatureMask single = FeatureMask::Single();
  EXPECT_TRUE(single.np_idf);
  EXPECT_FALSE(single.np_emb);
  EXPECT_FALSE(single.np_ppdb);
  EXPECT_TRUE(single.link_pop);
  EXPECT_FALSE(single.link_emb);
  EXPECT_TRUE(single.rel_ngram);
  EXPECT_FALSE(single.rel_ld);

  FeatureMask dbl = FeatureMask::Double();
  EXPECT_TRUE(dbl.np_idf);
  EXPECT_TRUE(dbl.np_emb);
  EXPECT_FALSE(dbl.np_ppdb);
  EXPECT_TRUE(dbl.link_emb);
  EXPECT_FALSE(dbl.link_ppdb);

  FeatureMask all = FeatureMask::All();
  EXPECT_TRUE(all.np_ppdb);
  EXPECT_TRUE(all.rp_amie);
  EXPECT_TRUE(all.rp_kbp);
}

// ---------- signals ---------------------------------------------------------------

TEST_F(CoreTest, SignalsPopulated) {
  EXPECT_GT(signals_->np_idf.vocabulary_size(), 0u);
  EXPECT_GT(signals_->rp_idf.vocabulary_size(), 0u);
  EXPECT_GT(signals_->embeddings.size(), 0u);
  EXPECT_NE(signals_->ppdb, nullptr);
}

TEST_F(CoreTest, SignalRangesValid) {
  const auto& t0 = dataset_->okb.triple(0);
  const auto& t1 = dataset_->okb.triple(1);
  for (double sim :
       {signals_->NpIdf(t0.subject, t1.subject),
        signals_->Emb(t0.subject, t1.subject),
        signals_->Ppdb(t0.subject, t1.subject),
        signals_->Amie(t0.predicate, t1.predicate),
        signals_->Kbp(t0.predicate, t1.predicate),
        NgramSimilarity(t0.predicate, t1.predicate),
        LevenshteinSimilarity(t0.predicate, t1.predicate)}) {
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0);
  }
}

// ---------- absence-is-neutral signal semantics -----------------------------------

TEST_F(CoreTest, PpdbAbsenceIsNeutral) {
  // Phrases outside PPDB score 0.5 (no evidence), not 0 (difference).
  EXPECT_DOUBLE_EQ(
      signals_->Ppdb("zzz never in ppdb", "qqq also never in ppdb"), 0.5);
}

TEST(SignalNeutralityTest, PpdbKnownDisagreementIsZero) {
  Dataset ds;
  ds.ppdb.AddCluster({"alpha corp", "alpha"});
  ds.ppdb.AddCluster({"beta inc", "beta"});
  SignalBundle sig;
  sig.ppdb = &ds.ppdb;
  // Both known, different clusters -> genuine negative evidence.
  EXPECT_DOUBLE_EQ(sig.Ppdb("alpha corp", "beta inc"), 0.0);
  // Same cluster -> 1.
  EXPECT_DOUBLE_EQ(sig.Ppdb("alpha", "alpha corp"), 1.0);
  // One unknown -> neutral.
  EXPECT_DOUBLE_EQ(sig.Ppdb("alpha corp", "gamma llc"), 0.5);
}

TEST(SignalNeutralityTest, AmieWithoutEvidenceIsNeutral) {
  Dataset ds;
  // One triple: every predicate is below the support threshold.
  ASSERT_TRUE(ds.okb.AddTriple("a", "works at", "b").ok());
  ds.gold_subject_entity = {kNilId};
  ds.gold_relation = {kNilId};
  ds.gold_object_entity = {kNilId};
  ds.gold_np_group = {0, 1};
  ds.gold_rp_group = {0};
  SignalBundle sig = BuildSignals(ds).MoveValueOrDie();
  EXPECT_DOUBLE_EQ(sig.Amie("works at", "is employed by"), 0.5);
  // Identical normalized forms stay 1 regardless of support.
  EXPECT_DOUBLE_EQ(sig.Amie("works at", "worked at"), 1.0);
}

TEST(SignalNeutralityTest, KbpAbstentionIsNeutral) {
  SignalBundle sig;
  sig.kbp.Train({{"was founded by", 1},
                 {"founded by", 1},
                 {"lives in", 2},
                 {"resides in", 2}});
  // Both classifiable, same category -> 1.
  EXPECT_DOUBLE_EQ(sig.Kbp("was founded by", "founded by"), 1.0);
  // Both classifiable, different categories -> 0.
  EXPECT_DOUBLE_EQ(sig.Kbp("founded by", "lives in"), 0.0);
  // Unclassifiable phrase -> neutral.
  EXPECT_DOUBLE_EQ(sig.Kbp("completely mysterious", "founded by"), 0.5);
}

// ---------- problem construction -----------------------------------------------------

TEST_F(CoreTest, ProblemSurfacesCoverAllMentions) {
  std::vector<size_t> all(dataset_->okb.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  JoclProblem problem = BuildProblem(*dataset_, *signals_, all);
  EXPECT_EQ(problem.triples.size(), dataset_->okb.size());
  EXPECT_EQ(problem.subject_of.size(), problem.triples.size());
  for (size_t t = 0; t < problem.triples.size(); ++t) {
    EXPECT_EQ(problem.subject_surfaces[problem.subject_of[t]],
              dataset_->okb.triple(problem.triples[t]).subject);
    EXPECT_EQ(problem.object_surfaces[problem.object_of[t]],
              dataset_->okb.triple(problem.triples[t]).object);
  }
  // Representative mentions point back at their own surface.
  for (size_t s = 0; s < problem.subject_surfaces.size(); ++s) {
    EXPECT_EQ(problem.subject_of[problem.subject_rep[s]], s);
  }
}

TEST_F(CoreTest, PairsRespectThresholdAndUniqueness) {
  std::vector<size_t> all(dataset_->okb.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  ProblemOptions options;
  options.pair_threshold = 0.5;
  options.side_info_blocking = false;  // test the paper's pure IDF rule
  JoclProblem problem = BuildProblem(*dataset_, *signals_, all, options);
  std::unordered_set<uint64_t> seen;
  for (const auto& pair : problem.subject_pairs) {
    EXPECT_LT(pair.a, pair.b);
    EXPECT_GE(pair.idf, 0.5);
    EXPECT_NEAR(pair.idf,
                signals_->np_idf.Similarity(
                    problem.subject_surfaces[pair.a],
                    problem.subject_surfaces[pair.b]),
                1e-12);
    uint64_t key = (static_cast<uint64_t>(pair.a) << 32) | pair.b;
    EXPECT_TRUE(seen.insert(key).second);
  }
  EXPECT_FALSE(problem.subject_pairs.empty());
}

TEST_F(CoreTest, HigherThresholdFewerPairs) {
  std::vector<size_t> all(dataset_->okb.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  ProblemOptions loose;
  loose.pair_threshold = 0.4;
  ProblemOptions strict;
  strict.pair_threshold = 0.8;
  size_t loose_pairs =
      BuildProblem(*dataset_, *signals_, all, loose).subject_pairs.size();
  size_t strict_pairs =
      BuildProblem(*dataset_, *signals_, all, strict).subject_pairs.size();
  EXPECT_GE(loose_pairs, strict_pairs);
}

TEST_F(CoreTest, SideInfoBlockingAddsPairs) {
  std::vector<size_t> all(dataset_->okb.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  ProblemOptions with;
  ProblemOptions without;
  without.side_info_blocking = false;
  JoclProblem p_with = BuildProblem(*dataset_, *signals_, all, with);
  JoclProblem p_without = BuildProblem(*dataset_, *signals_, all, without);
  EXPECT_GE(p_with.subject_pairs.size(), p_without.subject_pairs.size());
  EXPECT_GE(p_with.predicate_pairs.size(),
            p_without.predicate_pairs.size());
  // The IDF-qualified pairs are a subset of the extended pair set.
  std::unordered_set<uint64_t> extended;
  for (const auto& pair : p_with.subject_pairs) {
    extended.insert((static_cast<uint64_t>(pair.a) << 32) | pair.b);
  }
  for (const auto& pair : p_without.subject_pairs) {
    EXPECT_TRUE(extended.count((static_cast<uint64_t>(pair.a) << 32) |
                               pair.b) > 0);
  }
}

TEST_F(CoreTest, CandidatesBounded) {
  std::vector<size_t> all(dataset_->okb.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  ProblemOptions options;
  options.max_candidates = 3;
  JoclProblem problem = BuildProblem(*dataset_, *signals_, all, options);
  for (const auto& c : problem.subject_candidates) {
    EXPECT_LE(c.size(), 3u);
  }
  for (const auto& c : problem.predicate_candidates) {
    EXPECT_LE(c.size(), 3u);
  }
}

TEST_F(CoreTest, BuildProblemMatchesScratchOracle) {
  // BuildProblem runs one ProblemBuilder batch; the stateless reference in
  // scratch_problem.h pins it beyond the default options, including pair
  // caps small enough to truncate every role.
  std::vector<size_t> all(dataset_->okb.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::vector<size_t>& test = dataset_->test_triples;
  ASSERT_GT(test.size(), 20u);
  std::vector<size_t> shuffled(test.rbegin(), test.rend());
  shuffled.insert(shuffled.end(), test.begin(), test.begin() + 20);
  const std::vector<std::pair<std::string, std::vector<size_t>>> subsets = {
      {"all", all},
      {"test", test},
      {"unsorted test with duplicates", shuffled}};

  struct Variant {
    std::string name;
    ProblemOptions options;
  };
  std::vector<Variant> variants;
  for (double threshold : {0.4, 0.5, 0.8}) {
    Variant v{"pair_threshold=" + std::to_string(threshold), {}};
    v.options.pair_threshold = threshold;
    variants.push_back(v);
  }
  {
    Variant v{"side_info_blocking=false", {}};
    v.options.side_info_blocking = false;
    variants.push_back(v);
  }
  {
    Variant v{"max_candidates=blocking_candidates=3", {}};
    v.options.max_candidates = 3;
    v.options.blocking_candidates = 3;
    variants.push_back(v);
  }
  {
    Variant v{"max_block_size=4", {}};
    v.options.max_block_size = 4;
    variants.push_back(v);
  }
  for (size_t cap : {1u, 10u, 50u, 200u}) {
    Variant v{"max_pairs_per_role=" + std::to_string(cap), {}};
    v.options.max_pairs_per_role = cap;
    variants.push_back(v);
  }

  for (const auto& [subset_name, subset] : subsets) {
    for (const Variant& variant : variants) {
      SCOPED_TRACE(subset_name + ", " + variant.name);
      JoclProblem built =
          BuildProblem(*dataset_, *signals_, subset, variant.options);
      JoclProblem reference =
          BuildScratchProblem(*dataset_, *signals_, subset, variant.options);
      EXPECT_TRUE(ProblemsIdentical(built, reference));
    }
  }
}

// ---------- graph builder --------------------------------------------------------------

TEST_F(CoreTest, GraphStructureMatchesProblem) {
  std::vector<size_t> subset(dataset_->okb.size());
  for (size_t i = 0; i < subset.size(); ++i) subset[i] = i;
  subset.resize(100);
  JoclProblem problem = BuildProblem(*dataset_, *signals_, subset);
  SignalCache cache =
      SignalCache::ForProblem(problem, *signals_, dataset_->ckb);
  JoclGraph jg = BuildJoclGraph(problem, cache, dataset_->ckb);
  EXPECT_EQ(jg.x_vars.size(), problem.subject_pairs.size());
  EXPECT_EQ(jg.y_vars.size(), problem.predicate_pairs.size());
  EXPECT_EQ(jg.z_vars.size(), problem.object_pairs.size());
  EXPECT_EQ(jg.es_vars.size(), problem.triples.size());
  // Every pair variable is binary; every linking variable has
  // candidates + 1 states.
  for (VariableId v : jg.x_vars) {
    EXPECT_EQ(jg.graph.cardinality(v), 2u);
  }
  for (size_t t = 0; t < problem.triples.size(); ++t) {
    EXPECT_EQ(jg.graph.cardinality(jg.es_vars[t]),
              problem.subject_candidates[problem.subject_of[t]].size() + 1);
  }
  EXPECT_EQ(jg.graph.weight_count(), WeightLayout::kCount);
  EXPECT_FALSE(jg.schedule.empty());
}

TEST_F(CoreTest, AblationsRemoveFactorFamilies) {
  std::vector<size_t> subset;
  for (size_t i = 0; i < 80; ++i) subset.push_back(i);
  JoclProblem problem = BuildProblem(*dataset_, *signals_, subset);
  SignalCache cache =
      SignalCache::ForProblem(problem, *signals_, dataset_->ckb);

  GraphBuilderOptions full;
  JoclGraph jg_full = BuildJoclGraph(problem, cache, dataset_->ckb, full);

  GraphBuilderOptions cano_only;
  cano_only.enable_linking = false;
  cano_only.enable_consistency = false;
  cano_only.enable_fact_inclusion = false;
  JoclGraph jg_cano = BuildJoclGraph(problem, cache, dataset_->ckb, cano_only);
  EXPECT_TRUE(jg_cano.es_vars.empty());
  EXPECT_LT(jg_cano.graph.factor_count(), jg_full.graph.factor_count());

  GraphBuilderOptions link_only;
  link_only.enable_canonicalization = false;
  link_only.enable_transitive = false;
  link_only.enable_consistency = false;
  JoclGraph jg_link = BuildJoclGraph(problem, cache, dataset_->ckb, link_only);
  EXPECT_TRUE(jg_link.x_vars.empty());
  EXPECT_EQ(jg_link.es_vars.size(), problem.triples.size());

  GraphBuilderOptions no_cons;
  no_cons.enable_consistency = false;
  JoclGraph jg_nc = BuildJoclGraph(problem, cache, dataset_->ckb, no_cons);
  EXPECT_LT(jg_nc.graph.factor_count(), jg_full.graph.factor_count());
}

TEST_F(CoreTest, FeatureMaskShrinksFactorFeatures) {
  std::vector<size_t> subset;
  for (size_t i = 0; i < 60; ++i) subset.push_back(i);
  JoclProblem problem = BuildProblem(*dataset_, *signals_, subset);
  SignalCache cache =
      SignalCache::ForProblem(problem, *signals_, dataset_->ckb);
  GraphBuilderOptions single;
  single.features = FeatureMask::Single();
  JoclGraph jg = BuildJoclGraph(problem, cache, dataset_->ckb, single);
  // With the single mask, an F1 factor's log-potential must only depend on
  // alpha1.idf: zeroing every other weight must not change it.
  ASSERT_FALSE(jg.x_vars.empty());
  std::vector<double> w_all(WeightLayout::kCount, 1.0);
  std::vector<double> w_idf(WeightLayout::kCount, 0.0);
  w_idf[WeightLayout::kAlpha1] = 1.0;
  const FactorId factor = 0;  // first F1 factor
  for (size_t a = 0; a < 2; ++a) {
    double all_but_idf = jg.graph.LogPotential(factor, a, w_all) -
                         jg.graph.LogPotential(factor, a, w_idf);
    EXPECT_NEAR(all_but_idf, 0.0, 1e-12);
  }
}

// ---------- end-to-end pipeline ---------------------------------------------------------

TEST_F(CoreTest, RunProducesAlignedOutputs) {
  Jocl jocl;
  auto result = jocl.Run(*dataset_, *signals_, dataset_->test_triples);
  ASSERT_TRUE(result.ok());
  const JoclResult& r = result.ValueOrDie();
  EXPECT_EQ(r.triples.size(), dataset_->test_triples.size());
  EXPECT_EQ(r.np_cluster.size(), r.triples.size() * 2);
  EXPECT_EQ(r.np_link.size(), r.triples.size() * 2);
  EXPECT_EQ(r.rp_cluster.size(), r.triples.size());
  EXPECT_EQ(r.rp_link.size(), r.triples.size());
  EXPECT_EQ(r.weights.size(), WeightLayout::kCount);
  EXPECT_GT(r.diagnostics.iterations, 0u);
}

TEST_F(CoreTest, LearnedWeightsDifferFromDefaults) {
  Jocl jocl;
  auto weights = jocl.LearnWeights(*dataset_, *signals_);
  ASSERT_TRUE(weights.ok());
  std::vector<double> defaults = Jocl::DefaultWeights();
  double diff = 0.0;
  for (size_t k = 0; k < WeightLayout::kCount; ++k) {
    diff += std::abs(weights.ValueOrDie()[k] - defaults[k]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST_F(CoreTest, InferRejectsBadWeights) {
  Jocl jocl;
  auto result = jocl.Infer(*dataset_, *signals_, dataset_->test_triples,
                           std::vector<double>{1.0, 2.0});
  EXPECT_FALSE(result.ok());
}

TEST_F(CoreTest, IdenticalSurfacesClusterTogether) {
  Jocl jocl;
  auto result = jocl.Infer(*dataset_, *signals_, dataset_->test_triples);
  ASSERT_TRUE(result.ok());
  const JoclResult& r = result.ValueOrDie();
  // Mentions with the same surface string must share a cluster.
  std::unordered_map<std::string, size_t> first_label;
  for (size_t i = 0; i < r.triples.size(); ++i) {
    const OieTriple& triple = dataset_->okb.triple(r.triples[i]);
    auto [it_s, ins_s] =
        first_label.emplace(triple.subject, r.np_cluster[i * 2]);
    if (!ins_s) EXPECT_EQ(it_s->second, r.np_cluster[i * 2]);
    auto [it_o, ins_o] =
        first_label.emplace(triple.object, r.np_cluster[i * 2 + 1]);
    if (!ins_o) EXPECT_EQ(it_o->second, r.np_cluster[i * 2 + 1]);
  }
}

TEST_F(CoreTest, VariantsRun) {
  for (const JoclOptions& options :
       {JoclOptions::CanonicalizationOnly(), JoclOptions::LinkingOnly(),
        JoclOptions::WithoutConsistency()}) {
    Jocl jocl(options);
    std::vector<size_t> subset(dataset_->test_triples.begin(),
                               dataset_->test_triples.begin() + 50);
    auto result = jocl.Infer(*dataset_, *signals_, subset);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.ValueOrDie().np_cluster.size(), subset.size() * 2);
  }
}

}  // namespace
}  // namespace jocl

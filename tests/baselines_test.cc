#include <gtest/gtest.h>

#include <unordered_map>

#include "baselines/entity_linking.h"
#include "baselines/np_canonicalization.h"
#include "baselines/np_common.h"
#include "baselines/relation_linking.h"
#include "baselines/rp_canonicalization.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "eval/linking_metrics.h"
#include "serve/snapshot_io.h"

namespace jocl {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.num_entities = 50;
    options.num_relations = 8;
    options.num_triples = 250;
    options.seed = 33;
    dataset_ = new Dataset(GenerateDataset(options, "baselines-test")
                               .MoveValueOrDie());
    SignalOptions signal_options;
    signal_options.embedding_epochs = 2;
    signals_ = new SignalBundle(
        BuildSignals(*dataset_, signal_options).MoveValueOrDie());
    triple_embeddings_ = new EmbeddingTable(
        TrainTripleEmbeddings(*dataset_, signal_options).MoveValueOrDie());
    subset_ = new std::vector<size_t>(dataset_->test_triples);
  }
  static void TearDownTestSuite() {
    delete subset_;
    delete triple_embeddings_;
    delete signals_;
    delete dataset_;
  }

  static std::vector<size_t> GoldNpSubset() {
    std::vector<size_t> gold;
    for (size_t t : *subset_) {
      gold.push_back(static_cast<size_t>(dataset_->gold_np_group[t * 2]));
      gold.push_back(static_cast<size_t>(dataset_->gold_np_group[t * 2 + 1]));
    }
    return gold;
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
  static EmbeddingTable* triple_embeddings_;
  static std::vector<size_t>* subset_;
};

Dataset* BaselinesTest::dataset_ = nullptr;
SignalBundle* BaselinesTest::signals_ = nullptr;
EmbeddingTable* BaselinesTest::triple_embeddings_ = nullptr;
std::vector<size_t>* BaselinesTest::subset_ = nullptr;

// ---------- surface views -----------------------------------------------------

TEST_F(BaselinesTest, NpSurfaceViewCoversMentions) {
  NpSurfaceView view = BuildNpSurfaceView(*dataset_, *subset_);
  EXPECT_EQ(view.mention_surface.size(), subset_->size() * 2);
  for (size_t m : view.mention_surface) {
    EXPECT_LT(m, view.surfaces.size());
  }
  // Round trip: mention surface string matches the triple slot.
  for (size_t local = 0; local < view.triples.size(); ++local) {
    const OieTriple& t = dataset_->okb.triple(view.triples[local]);
    EXPECT_EQ(view.surfaces[view.mention_surface[local * 2]], t.subject);
    EXPECT_EQ(view.surfaces[view.mention_surface[local * 2 + 1]], t.object);
  }
}

TEST_F(BaselinesTest, SurfaceToMentionLabelsExpands) {
  std::vector<size_t> mention_surface = {0, 1, 1, 2};
  std::vector<size_t> surface_labels = {5, 5, 7};
  EXPECT_EQ(SurfaceToMentionLabels(mention_surface, surface_labels),
            (std::vector<size_t>{5, 5, 5, 7}));
}

// ---------- NP canonicalization baselines -----------------------------------------

TEST_F(BaselinesTest, AllNpBaselinesProduceAlignedLabels) {
  const size_t expected = subset_->size() * 2;
  EXPECT_EQ(MorphNormCanonicalize(*dataset_, *subset_).size(), expected);
  EXPECT_EQ(WikidataIntegratorCanonicalize(*dataset_, *subset_).size(),
            expected);
  EXPECT_EQ(TextSimilarityCanonicalize(*dataset_, *subset_).size(), expected);
  EXPECT_EQ(IdfTokenOverlapCanonicalize(*dataset_, *signals_, *subset_).size(),
            expected);
  EXPECT_EQ(AttributeOverlapCanonicalize(*dataset_, *subset_).size(),
            expected);
  EXPECT_EQ(
      CesiCanonicalize(*dataset_, *signals_, *triple_embeddings_, *subset_)
          .size(),
      expected);
  EXPECT_EQ(SistCanonicalize(*dataset_, *signals_, *subset_).size(), expected);
}

TEST(MorphNormBehaviorTest, MergesMorphologicalVariantsOnly) {
  Dataset ds;
  ASSERT_TRUE(ds.okb.AddTriple("the universities", "r", "UMD").ok());
  ASSERT_TRUE(ds.okb.AddTriple("university", "r", "UMD").ok());
  ds.gold_np_group = {0, 1, 0, 1};
  ds.gold_rp_group = {0, 0};
  ds.gold_subject_entity = {0, 0};
  ds.gold_relation = {0, 0};
  ds.gold_object_entity = {1, 1};
  auto labels = MorphNormCanonicalize(ds, {0, 1});
  EXPECT_EQ(labels[0], labels[2]);  // "the universities" ~ "university"
  EXPECT_EQ(labels[1], labels[3]);  // identical surface
  EXPECT_NE(labels[0], labels[1]);  // unrelated strings stay apart
}

TEST_F(BaselinesTest, BetterBaselinesBeatMorphNorm) {
  std::vector<size_t> gold = GoldNpSubset();
  double morph =
      EvaluateClustering(MorphNormCanonicalize(*dataset_, *subset_), gold)
          .average_f1;
  double cesi = EvaluateClustering(CesiCanonicalize(*dataset_, *signals_,
                                                    *triple_embeddings_,
                                                    *subset_),
                                   gold)
                    .average_f1;
  double sist = EvaluateClustering(
                    SistCanonicalize(*dataset_, *signals_, *subset_), gold)
                    .average_f1;
  EXPECT_GT(cesi, morph);
  EXPECT_GT(sist, morph);
}

// ---------- RP canonicalization baselines --------------------------------------------

TEST_F(BaselinesTest, RpBaselinesProduceAlignedLabels) {
  EXPECT_EQ(AmieCanonicalize(*dataset_, *signals_, *subset_).size(),
            subset_->size());
  EXPECT_EQ(PattyCanonicalize(*dataset_, *subset_).size(), subset_->size());
  EXPECT_EQ(SistRpCanonicalize(*dataset_, *signals_, *subset_).size(),
            subset_->size());
}

TEST_F(BaselinesTest, AmieHasLowCoverageAsInPaper) {
  // AMIE only merges RPs passing support thresholds; most surfaces stay
  // singletons (paper §4.2.2).
  auto labels = AmieCanonicalize(*dataset_, *signals_, *subset_);
  std::unordered_map<size_t, size_t> sizes;
  for (size_t label : labels) ++sizes[label];
  size_t singleton_mentions = 0;
  for (size_t m = 0; m < labels.size(); ++m) {
    // A label used by exactly one distinct surface but many mentions is not
    // a merge; approximate by counting labels of size 1.
    if (sizes[labels[m]] == 1) ++singleton_mentions;
  }
  // Some mentions should remain unmerged singletons.
  EXPECT_GT(singleton_mentions, 0u);
}

// ---------- entity linking baselines ---------------------------------------------------

TEST_F(BaselinesTest, EntityLinkersProduceAlignedLinks) {
  const size_t expected = subset_->size() * 2;
  EXPECT_EQ(SpotlightLink(*dataset_, *signals_, *subset_).size(), expected);
  EXPECT_EQ(TagMeLink(*dataset_, *subset_).size(), expected);
  EXPECT_EQ(FalconLink(*dataset_, *subset_).size(), expected);
  EXPECT_EQ(EarlLink(*dataset_, *subset_).size(), expected);
  EXPECT_EQ(KbpearlLink(*dataset_, *subset_).size(), expected);
}

TEST_F(BaselinesTest, SpotlightBeatsRandomGuessing) {
  std::vector<int64_t> gold;
  for (size_t t : *subset_) {
    gold.push_back(dataset_->gold_subject_entity[t]);
    gold.push_back(dataset_->gold_object_entity[t]);
  }
  auto links = SpotlightLink(*dataset_, *signals_, *subset_);
  double accuracy = LinkingAccuracy(links, gold);
  // Popularity priors on a ReVerb45K-like set should do far better than
  // 1/|E| random chance.
  EXPECT_GT(accuracy, 0.2);
}

TEST(SpotlightBehaviorTest, LinksUnambiguousAlias) {
  Dataset ds;
  EntityId umd = ds.ckb.AddEntity("university of maryland");
  ASSERT_TRUE(ds.ckb.AddAnchor("umd", umd, 50).ok());
  ASSERT_TRUE(ds.okb.AddTriple("UMD", "r", "UMD").ok());
  SignalBundle signals;
  signals.ppdb = &ds.ppdb;
  auto links = SpotlightLink(ds, signals, {0});
  EXPECT_EQ(links[0], umd);
}

TEST(TagMeBehaviorTest, PrunesLowCommonnessCandidates) {
  Dataset ds;
  EntityId a = ds.ckb.AddEntity("alpha place");
  EntityId b = ds.ckb.AddEntity("beta place");
  // "place" is highly ambiguous: 50/50 split stays below epsilon = 0.55.
  ASSERT_TRUE(ds.ckb.AddAnchor("place", a, 10).ok());
  ASSERT_TRUE(ds.ckb.AddAnchor("place", b, 10).ok());
  ASSERT_TRUE(ds.okb.AddTriple("place", "r", "place").ok());
  auto links = TagMeLink(ds, {0});
  EXPECT_EQ(links[0], kNilId);
}

TEST(FalconBehaviorTest, ExactNameMatchWins) {
  Dataset ds;
  EntityId umd = ds.ckb.AddEntity("university of maryland");
  ds.ckb.AddEntity("university of virginia");
  ASSERT_TRUE(
      ds.okb.AddTriple("University of Maryland", "r", "x y z").ok());
  auto links = FalconLink(ds, {0});
  EXPECT_EQ(links[0], umd);
  EXPECT_EQ(links[1], kNilId);  // "x y z" matches nothing
}

// ---------- crafted per-baseline behaviors ------------------------------------------

// Shared scaffolding for a hand-built 2-triple data set.
Dataset TwoTripleDataset(const char* s0, const char* p0, const char* o0,
                         const char* s1, const char* p1, const char* o1) {
  Dataset ds;
  EXPECT_TRUE(ds.okb.AddTriple(s0, p0, o0).ok());
  EXPECT_TRUE(ds.okb.AddTriple(s1, p1, o1).ok());
  for (size_t t = 0; t < 2; ++t) {
    ds.gold_subject_entity.push_back(kNilId);
    ds.gold_relation.push_back(kNilId);
    ds.gold_object_entity.push_back(kNilId);
    ds.gold_np_group.push_back(static_cast<int64_t>(t * 2));
    ds.gold_np_group.push_back(static_cast<int64_t>(t * 2 + 1));
    ds.gold_rp_group.push_back(static_cast<int64_t>(t));
  }
  return ds;
}

TEST(TextSimilarityBehaviorTest, MergesTypoVariants) {
  Dataset ds = TwoTripleDataset("mississippi", "r", "x",
                                "missisippi", "r", "y");
  auto labels = TextSimilarityCanonicalize(ds, {0, 1});
  EXPECT_EQ(labels[0], labels[2]);  // one dropped char: Jaro-Winkler high
}

TEST(TextSimilarityBehaviorTest, KeepsDissimilarApart) {
  Dataset ds = TwoTripleDataset("alpha", "r", "x", "omega", "r", "y");
  auto labels = TextSimilarityCanonicalize(ds, {0, 1});
  EXPECT_NE(labels[0], labels[2]);
}

TEST(AttributeOverlapBehaviorTest, MergesSharedAttributeProfiles) {
  // Two subjects with identical (normalized) relation profiles merge;
  // a third with a disjoint profile stays out.
  Dataset ds;
  ASSERT_TRUE(ds.okb.AddTriple("aaa", "founded by", "x").ok());
  ASSERT_TRUE(ds.okb.AddTriple("bbb", "was founded by", "y").ok());
  ASSERT_TRUE(ds.okb.AddTriple("ccc", "lives in", "z").ok());
  for (size_t t = 0; t < 3; ++t) {
    ds.gold_subject_entity.push_back(kNilId);
    ds.gold_relation.push_back(kNilId);
    ds.gold_object_entity.push_back(kNilId);
    ds.gold_np_group.push_back(static_cast<int64_t>(t * 2));
    ds.gold_np_group.push_back(static_cast<int64_t>(t * 2 + 1));
    ds.gold_rp_group.push_back(static_cast<int64_t>(t));
  }
  auto labels = AttributeOverlapCanonicalize(ds, {0, 1, 2});
  EXPECT_EQ(labels[0], labels[2]);  // aaa ~ bbb (same normalized RP)
  EXPECT_NE(labels[0], labels[4]);  // ccc apart
}

TEST(CesiBehaviorTest, PpdbShortCircuitMergesTokenDisjointAliases) {
  Dataset ds = TwoTripleDataset("international business machines", "r", "x",
                                "big blue", "r", "y");
  ds.ppdb.AddCluster({"international business machines", "big blue"});
  SignalBundle sig;
  sig.ppdb = &ds.ppdb;
  auto labels = CesiCanonicalize(ds, sig, EmbeddingTable(0), {0, 1});
  EXPECT_EQ(labels[0], labels[2]);
}

TEST(EarlBehaviorTest, RelationSpecificDensityDisambiguates) {
  // Candidates: "springfield" could be city A or city B. Only A is
  // connected to "illinois" via the triple's relation, so EARL must pick A.
  Dataset ds = TwoTripleDataset("springfield city", "located in", "illinois",
                                "springfield city", "located in",
                                "illinois");
  EntityId a = ds.ckb.AddEntity("springfield city");
  EntityId b = ds.ckb.AddEntity("springfield city theater");
  EntityId il = ds.ckb.AddEntity("illinois");
  RelationId located = ds.ckb.AddRelation("located_city");
  ASSERT_TRUE(ds.ckb.AddRelationAlias(located, "located in").ok());
  ASSERT_TRUE(ds.ckb.AddFact(a, located, il).ok());
  (void)b;
  auto links = EarlLink(ds, {0, 1});
  EXPECT_EQ(links[0], a);
  EXPECT_EQ(links[1], il);
}

TEST(KbpearlBehaviorTest, AbstainsWithoutEvidence) {
  // No anchors, no facts: every candidate score stays below the abstain
  // threshold and KBPearl links nothing.
  Dataset ds = TwoTripleDataset("zzz qqq", "rrr sss", "www vvv",
                                "zzz qqq", "rrr sss", "www vvv");
  ds.ckb.AddEntity("totally unrelated");
  auto links = KbpearlLink(ds, {0, 1});
  for (int64_t link : links) EXPECT_EQ(link, kNilId);
}

TEST(FalconRelationBehaviorTest, MorphNormalizedAliasMatchWins) {
  Dataset ds = TwoTripleDataset("a", "was founded by", "b",
                                "c", "was founded by", "d");
  RelationId founded = ds.ckb.AddRelation("founder_company");
  ASSERT_TRUE(ds.ckb.AddRelationAlias(founded, "founded by").ok());
  ds.ckb.AddRelation("owner_company");
  auto links = FalconRelationLink(ds, {0, 1});
  // "was founded by" morph-normalizes to the alias "founded by".
  EXPECT_EQ(links[0], founded);
  EXPECT_EQ(links[1], founded);
}

TEST(PattyBehaviorTest, SharedArgumentPairsMerge) {
  // Two RPs over the same (subject, object) pairs merge once the shared
  // support reaches the threshold.
  Dataset ds;
  const char* pairs[][2] = {{"p1", "q1"}, {"p2", "q2"}};
  for (const auto& pair : pairs) {
    ASSERT_TRUE(ds.okb.AddTriple(pair[0], "acquired", pair[1]).ok());
    ASSERT_TRUE(ds.okb.AddTriple(pair[0], "bought out", pair[1]).ok());
  }
  for (size_t t = 0; t < 4; ++t) {
    ds.gold_subject_entity.push_back(kNilId);
    ds.gold_relation.push_back(kNilId);
    ds.gold_object_entity.push_back(kNilId);
    ds.gold_np_group.push_back(static_cast<int64_t>(t * 2));
    ds.gold_np_group.push_back(static_cast<int64_t>(t * 2 + 1));
    ds.gold_rp_group.push_back(0);
  }
  auto labels = PattyCanonicalize(ds, {0, 1, 2, 3}, /*min_shared_pairs=*/2);
  // Mentions 0/2 use "acquired", 1/3 use "bought out" — all one cluster.
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[2], labels[3]);
}

// ---------- relation linking baselines ----------------------------------------------------

TEST_F(BaselinesTest, RelationLinkersProduceAlignedLinks) {
  EXPECT_EQ(FalconRelationLink(*dataset_, *subset_).size(), subset_->size());
  EXPECT_EQ(EarlRelationLink(*dataset_, *subset_).size(), subset_->size());
  EXPECT_EQ(KbpearlRelationLink(*dataset_, *subset_).size(), subset_->size());
  EXPECT_EQ(RematchRelationLink(*dataset_, *subset_).size(), subset_->size());
}

TEST(RematchBehaviorTest, SurfaceMatchFindsAliasedRelation) {
  Dataset ds;
  RelationId member = ds.ckb.AddRelation("member_club");
  ASSERT_TRUE(ds.ckb.AddRelationAlias(member, "be a member of").ok());
  ds.ckb.AddRelation("owner_company");
  ASSERT_TRUE(ds.okb.AddTriple("x", "be a member of", "y").ok());
  auto links = RematchRelationLink(ds, {0});
  EXPECT_EQ(links[0], member);
}

// ---------- pinned outputs ------------------------------------------------------------

// Every baseline's output on the fixture world, pinned by hash: the labels
// of each NP and RP canonicalizer and the links of each entity and relation
// linker, one row per baseline. Any moved label or link fails its row. The
// constants were recorded while the baselines still lived in libjocl, each
// cache build materialized only the signal families its baseline read, and
// BuildSignals trained CESI's triple-only table.
TEST_F(BaselinesTest, BaselineLabelsArePinned) {
  auto hash = [](const auto& values) {
    std::vector<int64_t> words(values.begin(), values.end());
    return Fnv1a64(words.data(), words.size() * sizeof(int64_t));
  };
  const Dataset& ds = *dataset_;
  const SignalBundle& sig = *signals_;
  const std::vector<size_t>& eval = *subset_;
  struct Row {
    const char* baseline;
    uint64_t hash;
    uint64_t pinned;
  };
  const Row rows[] = {
      {"MorphNorm", hash(MorphNormCanonicalize(ds, eval)),
       0x0bd6e87604fa0936ull},
      {"WikidataIntegrator", hash(WikidataIntegratorCanonicalize(ds, eval)),
       0x40fc34cf750c51f8ull},
      {"TextSimilarity", hash(TextSimilarityCanonicalize(ds, eval)),
       0x23c5b75bce25c873ull},
      {"IdfTokenOverlap", hash(IdfTokenOverlapCanonicalize(ds, sig, eval)),
       0xf6e34586ba49cdecull},
      {"AttributeOverlap", hash(AttributeOverlapCanonicalize(ds, eval)),
       0x765e6237af6facceull},
      {"Cesi",
       hash(CesiCanonicalize(ds, sig, *triple_embeddings_, eval)),
       0xd5ac90ee343417c3ull},
      {"Sist", hash(SistCanonicalize(ds, sig, eval)), 0x77d924638be2f86cull},
      {"Amie", hash(AmieCanonicalize(ds, sig, eval)), 0x4a9a2b7687494482ull},
      {"Patty", hash(PattyCanonicalize(ds, eval)), 0x11a66b23aab08196ull},
      {"SistRp", hash(SistRpCanonicalize(ds, sig, eval)),
       0x7abe4c208a7eef34ull},
      {"Spotlight", hash(SpotlightLink(ds, sig, eval)),
       0x5a93837c474cb6f3ull},
      {"TagMe", hash(TagMeLink(ds, eval)), 0x2ebf875fe8073d27ull},
      {"Falcon", hash(FalconLink(ds, eval)), 0x04f8996d40bd037bull},
      {"Earl", hash(EarlLink(ds, eval)), 0x7c2db078e46963c8ull},
      {"Kbpearl", hash(KbpearlLink(ds, eval)), 0xedcbcb71ade9a09full},
      {"FalconRelation", hash(FalconRelationLink(ds, eval)),
       0xb66889b5ded843f7ull},
      {"EarlRelation", hash(EarlRelationLink(ds, eval)),
       0x765d826fb24595e7ull},
      {"KbpearlRelation", hash(KbpearlRelationLink(ds, eval)),
       0x7bcc1d8a09d82ef3ull},
      {"RematchRelation", hash(RematchRelationLink(ds, eval)),
       0x9c25e0346e06d965ull},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(row.hash, row.pinned)
        << row.baseline << ": 0x" << std::hex << row.hash;
  }
}

}  // namespace
}  // namespace jocl

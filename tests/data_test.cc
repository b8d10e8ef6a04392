#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "data/dataset_io.h"
#include "data/generator.h"
#include "data/lexicon.h"
#include "seeded_mutants.h"

namespace jocl {
namespace {

GeneratorOptions SmallOptions(uint64_t seed = 7) {
  GeneratorOptions options;
  options.num_entities = 60;
  options.num_relations = 10;
  options.num_triples = 300;
  options.seed = seed;
  return options;
}

// ---------- Lexicon -----------------------------------------------------------

TEST(LexiconTest, PoolsPopulatedAndDistinctWordsUnique) {
  Rng rng(1);
  Lexicon lexicon(100, &rng);
  EXPECT_GE(lexicon.type_words().size(), 20u);
  EXPECT_GE(lexicon.verb_synsets().size(), 15u);
  EXPECT_EQ(lexicon.distinct_words().size(), 100u);
  std::unordered_set<std::string> unique(lexicon.distinct_words().begin(),
                                         lexicon.distinct_words().end());
  EXPECT_EQ(unique.size(), 100u);
}

TEST(LexiconTest, VerbFormsInflected) {
  Rng rng(1);
  Lexicon lexicon(10, &rng);
  bool found = false;
  for (const auto& synset : lexicon.verb_synsets()) {
    for (const auto& verb : synset.verbs) {
      if (verb.base == "found") {
        EXPECT_EQ(verb.past, "founded");
        EXPECT_EQ(verb.gerund, "founding");
        EXPECT_EQ(verb.third, "founds");
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(LexiconTest, SyntheticWordsArePronounceableAscii) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    std::string word = Lexicon::MakeSyntheticWord(&rng);
    EXPECT_GE(word.size(), 3u);
    for (char c : word) {
      EXPECT_TRUE(c >= 'a' && c <= 'z') << word;
    }
  }
}

// ---------- generator invariants --------------------------------------------------

TEST(GeneratorTest, RejectsDegenerateSizes) {
  GeneratorOptions options;
  options.num_entities = 2;
  EXPECT_FALSE(GenerateDataset(options, "bad").ok());
}

TEST(GeneratorTest, GoldVectorsAlignedWithTriples) {
  auto result = GenerateDataset(SmallOptions(), "t");
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.ValueOrDie();
  size_t n = ds.okb.size();
  EXPECT_EQ(n, 300u);
  EXPECT_EQ(ds.gold_subject_entity.size(), n);
  EXPECT_EQ(ds.gold_relation.size(), n);
  EXPECT_EQ(ds.gold_object_entity.size(), n);
  EXPECT_EQ(ds.gold_np_group.size(), n * 2);
  EXPECT_EQ(ds.gold_rp_group.size(), n);
  EXPECT_EQ(ds.validation_triples.size() + ds.test_triples.size(), n);
}

TEST(GeneratorTest, ReVerbLikeHasNoNilGold) {
  auto result = GenerateReVerb45K(0.2, 3);
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.ValueOrDie();
  for (size_t t = 0; t < ds.okb.size(); ++t) {
    EXPECT_NE(ds.gold_subject_entity[t], kNilId);
    EXPECT_NE(ds.gold_relation[t], kNilId);
    EXPECT_NE(ds.gold_object_entity[t], kNilId);
  }
  EXPECT_FALSE(ds.validation_triples.empty());
}

TEST(GeneratorTest, NytLikeHasNilsAndNoValidation) {
  auto result = GenerateNYTimes2018(0.3, 5);
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.ValueOrDie();
  size_t nil_entities = 0;
  size_t nil_relations = 0;
  for (size_t t = 0; t < ds.okb.size(); ++t) {
    if (ds.gold_subject_entity[t] == kNilId) ++nil_entities;
    if (ds.gold_relation[t] == kNilId) ++nil_relations;
  }
  EXPECT_GT(nil_entities, 0u);
  EXPECT_GT(nil_relations, 0u);
  EXPECT_TRUE(ds.validation_triples.empty());
}

TEST(GeneratorTest, GoldLinkConsistentWithGoldGroups) {
  auto result = GenerateDataset(SmallOptions(), "t");
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.ValueOrDie();
  // Same gold group <=> same gold entity (for linkable mentions). Check on
  // the subject role.
  std::unordered_map<int64_t, int64_t> group_entity;
  for (size_t t = 0; t < ds.okb.size(); ++t) {
    int64_t group = ds.gold_np_group[t * 2];
    int64_t entity = ds.gold_subject_entity[t];
    auto [it, inserted] = group_entity.emplace(group, entity);
    if (!inserted) EXPECT_EQ(it->second, entity) << "group " << group;
  }
}

TEST(GeneratorTest, SameGroupMentionsShareGoldEntityAcrossRoles) {
  auto result = GenerateDataset(SmallOptions(), "t");
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.ValueOrDie();
  std::unordered_map<int64_t, int64_t> group_entity;
  for (size_t m = 0; m < ds.gold_np_group.size(); ++m) {
    auto [it, inserted] =
        group_entity.emplace(ds.gold_np_group[m], ds.GoldEntityOfMention(m));
    if (!inserted) EXPECT_EQ(it->second, ds.GoldEntityOfMention(m));
  }
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  auto a = GenerateDataset(SmallOptions(11), "a");
  auto b = GenerateDataset(SmallOptions(11), "b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Dataset& da = a.ValueOrDie();
  const Dataset& db = b.ValueOrDie();
  ASSERT_EQ(da.okb.size(), db.okb.size());
  for (size_t t = 0; t < da.okb.size(); ++t) {
    EXPECT_EQ(da.okb.triple(t).subject, db.okb.triple(t).subject);
    EXPECT_EQ(da.okb.triple(t).predicate, db.okb.triple(t).predicate);
    EXPECT_EQ(da.okb.triple(t).object, db.okb.triple(t).object);
  }
  EXPECT_EQ(da.validation_triples, db.validation_triples);
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  auto a = GenerateDataset(SmallOptions(11), "a");
  auto b = GenerateDataset(SmallOptions(12), "b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  size_t differences = 0;
  size_t n = std::min(a.ValueOrDie().okb.size(), b.ValueOrDie().okb.size());
  for (size_t t = 0; t < n; ++t) {
    if (a.ValueOrDie().okb.triple(t).subject !=
        b.ValueOrDie().okb.triple(t).subject) {
      ++differences;
    }
  }
  EXPECT_GT(differences, n / 4);
}

TEST(GeneratorTest, EntitiesHaveMultipleAliasesInUse) {
  auto result = GenerateDataset(SmallOptions(), "t");
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.ValueOrDie();
  // Count distinct surfaces per gold group; a healthy share of groups with
  // >= 2 mentions should expose >= 2 surfaces (the ReVerb45K contract).
  std::unordered_map<int64_t, std::unordered_set<std::string>> surfaces;
  for (size_t t = 0; t < ds.okb.size(); ++t) {
    surfaces[ds.gold_np_group[t * 2]].insert(ds.okb.triple(t).subject);
    surfaces[ds.gold_np_group[t * 2 + 1]].insert(ds.okb.triple(t).object);
  }
  size_t multi = 0;
  size_t total = 0;
  for (const auto& [group, set] : surfaces) {
    ++total;
    if (set.size() >= 2) ++multi;
  }
  EXPECT_GT(multi, total / 4);
}

TEST(GeneratorTest, CkbFactsSubsetOfGoldFacts) {
  auto result = GenerateDataset(SmallOptions(), "t");
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.ValueOrDie();
  // Every CKB fact must be derivable from some gold triple.
  std::unordered_set<std::string> gold;
  for (size_t t = 0; t < ds.okb.size(); ++t) {
    if (ds.gold_subject_entity[t] == kNilId ||
        ds.gold_relation[t] == kNilId || ds.gold_object_entity[t] == kNilId) {
      continue;
    }
    gold.insert(std::to_string(ds.gold_subject_entity[t]) + ":" +
                std::to_string(ds.gold_relation[t]) + ":" +
                std::to_string(ds.gold_object_entity[t]));
  }
  for (const Fact& fact : ds.ckb.facts()) {
    std::string key = std::to_string(fact.subject) + ":" +
                      std::to_string(fact.relation) + ":" +
                      std::to_string(fact.object);
    EXPECT_TRUE(gold.count(key) > 0) << key;
  }
  EXPECT_GT(ds.ckb.fact_count(), 0u);
}

TEST(GeneratorTest, ValidationSplitRoughlyTwentyPercent) {
  GeneratorOptions options = SmallOptions();
  options.num_triples = 1000;
  auto result = GenerateDataset(options, "t");
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.ValueOrDie();
  double fraction = static_cast<double>(ds.validation_triples.size()) /
                    static_cast<double>(ds.okb.size());
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.45);
}

TEST(GeneratorTest, PpdbAndAuxSentencesPopulated) {
  auto result = GenerateDataset(SmallOptions(), "t");
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.ValueOrDie();
  EXPECT_GT(ds.ppdb.cluster_count(), 0u);
  EXPECT_GT(ds.aux_sentences.size(), 0u);
}

// ---------- generator invariants across seeds (parameterized sweep) --------------

class GeneratorInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorInvariants, HoldAcrossSeeds) {
  GeneratorOptions options = SmallOptions(GetParam());
  auto result = GenerateDataset(options, "sweep");
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.ValueOrDie();

  // Structural alignment.
  EXPECT_EQ(ds.okb.size(), options.num_triples);
  EXPECT_EQ(ds.gold_np_group.size(), ds.okb.size() * 2);
  EXPECT_EQ(ds.validation_triples.size() + ds.test_triples.size(),
            ds.okb.size());

  // Splits are disjoint and sorted-unique.
  std::unordered_set<size_t> validation(ds.validation_triples.begin(),
                                        ds.validation_triples.end());
  EXPECT_EQ(validation.size(), ds.validation_triples.size());
  for (size_t t : ds.test_triples) EXPECT_EQ(validation.count(t), 0u);

  // Gold entity ids are valid CKB ids or NIL; gold link consistency with
  // groups holds for every mention.
  std::unordered_map<int64_t, int64_t> group_entity;
  for (size_t m = 0; m < ds.gold_np_group.size(); ++m) {
    int64_t entity = ds.GoldEntityOfMention(m);
    if (entity != kNilId) {
      EXPECT_GE(entity, 0);
      EXPECT_LT(entity, static_cast<int64_t>(ds.ckb.entity_count()));
    }
    auto [it, inserted] = group_entity.emplace(ds.gold_np_group[m], entity);
    if (!inserted) EXPECT_EQ(it->second, entity);
  }

  // Every CKB fact has valid ids.
  for (const Fact& fact : ds.ckb.facts()) {
    EXPECT_GE(fact.subject, 0);
    EXPECT_LT(fact.subject, static_cast<int64_t>(ds.ckb.entity_count()));
    EXPECT_GE(fact.relation, 0);
    EXPECT_LT(fact.relation, static_cast<int64_t>(ds.ckb.relation_count()));
  }

  // Anchor statistics are internally consistent for mentioned surfaces.
  for (size_t t = 0; t < std::min<size_t>(ds.okb.size(), 50); ++t) {
    const std::string& s = ds.okb.triple(t).subject;
    int64_t total = ds.ckb.AnchorCount(s);
    if (total > 0) {
      auto candidates = ds.ckb.ExactAnchorCandidates(s, 100);
      int64_t sum = 0;
      for (const auto& c : candidates) {
        sum += ds.ckb.AnchorCount(s, c.id);
      }
      EXPECT_EQ(sum, total) << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorInvariants,
                         ::testing::Values(1, 7, 42, 99, 1234, 777777));

// ---------- dataset IO ------------------------------------------------------------

TEST(DatasetIoTest, TsvRoundTrip) {
  auto result = GenerateDataset(SmallOptions(), "t");
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.ValueOrDie();
  std::string path = ::testing::TempDir() + "/jocl_triples.tsv";
  ASSERT_TRUE(SaveTriplesTsv(ds, path).ok());
  auto loaded = LoadTriplesTsv(path);
  ASSERT_TRUE(loaded.ok());
  const Dataset& ld = loaded.ValueOrDie();
  ASSERT_EQ(ld.okb.size(), ds.okb.size());
  for (size_t t = 0; t < ds.okb.size(); ++t) {
    EXPECT_EQ(ld.okb.triple(t).subject, ds.okb.triple(t).subject);
    EXPECT_EQ(ld.gold_relation[t], ds.gold_relation[t]);
    EXPECT_EQ(ld.gold_np_group[t * 2], ds.gold_np_group[t * 2]);
  }
  EXPECT_EQ(ld.validation_triples, ds.validation_triples);
  EXPECT_EQ(ld.test_triples, ds.test_triples);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, LoadRejectsMalformedFile) {
  std::string path = ::testing::TempDir() + "/jocl_bad.tsv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("only\tthree\tcolumns\n", f);
  fclose(f);
  EXPECT_FALSE(LoadTriplesTsv(path).ok());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadTriplesTsv("/nonexistent/path/file.tsv").ok());
}

TEST(DatasetIoTest, MalformedGoldLabelsReturnALocatedStatus) {
  const std::string path = ::testing::TempDir() + "/jocl_labels.tsv";
  const std::string good = "s\tp\to\t0\t1\t2\t3\t4\t5\ttest\n";
  WriteFile(path, good);
  ASSERT_TRUE(LoadTriplesTsv(path).ok());
  const std::pair<std::string, std::string> cases[] = {
      {"s\tp\to\t1x\t1\t2\t3\t4\t5\ttest\n", ":1: column 4"},
      {"s\tp\to\t0\t1\t2\t3\t4\t\ttest\n", ":1: column 9"},
      {good + "s\tp\to\t0\t99999999999999999999\t2\t3\t4\t5\ttest\n",
       ":2: column 5"},
      {"\n" + good + "s\tp\to\t0\t1\t2\t+3\t4\t5\ttest\n", ":3: column 7"},
      {"s\tp\to\t0\t1\t2\n", ":1: expected 10 columns"},
      {"s\t\to\t0\t1\t2\t3\t4\t5\ttest\n", ":1: "},
  };
  for (const auto& [body, where] : cases) {
    WriteFile(path, body);
    auto loaded = LoadTriplesTsv(path);
    ASSERT_FALSE(loaded.ok()) << body;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    EXPECT_NE(loaded.status().message().find(path + where), std::string::npos)
        << loaded.status();
  }
  std::remove(path.c_str());
}

TEST(DatasetIoTest, SeededMutantsLoadOrFailWithALocatedStatus) {
  auto result = GenerateDataset(SmallOptions(), "t");
  ASSERT_TRUE(result.ok());
  const std::string path = ::testing::TempDir() + "/jocl_mutant.tsv";
  ASSERT_TRUE(SaveTriplesTsv(result.ValueOrDie(), path).ok());
  const std::string original = ReadFile(path);
  ASSERT_FALSE(original.empty());

  std::mt19937_64 rng(20211);
  constexpr size_t kPerKind = 150;
  size_t loaded = 0;
  size_t rejected = 0;
  for (size_t kind = 0; kind < kMutationKinds; ++kind) {
    for (size_t m = 0; m < kPerKind; ++m) {
      SCOPED_TRACE("mutation kind " + std::to_string(kind) + " #" +
                   std::to_string(m));
      WriteFile(path, Mutate(original, kind, &rng));
      auto mutant = LoadTriplesTsv(path);
      if (!mutant.ok()) {
        ++rejected;
        EXPECT_NE(mutant.status().message().find(path + ":"),
                  std::string::npos)
            << mutant.status();
        continue;
      }
      ++loaded;
      // A mutant that loads is a consistent data set.
      const Dataset& ds = mutant.ValueOrDie();
      const size_t n = ds.okb.size();
      EXPECT_EQ(ds.gold_subject_entity.size(), n);
      EXPECT_EQ(ds.gold_relation.size(), n);
      EXPECT_EQ(ds.gold_object_entity.size(), n);
      EXPECT_EQ(ds.gold_np_group.size(), 2 * n);
      EXPECT_EQ(ds.gold_rp_group.size(), n);
      EXPECT_EQ(ds.validation_triples.size() + ds.test_triples.size(), n);
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jocl

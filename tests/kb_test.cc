#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>

#include "data/dataset.h"
#include "data/generator.h"
#include "kb/curated_kb.h"
#include "kb/kb_io.h"
#include "kb/open_kb.h"
#include "seeded_mutants.h"
#include "serve/snapshot_io.h"

namespace jocl {
namespace {

CuratedKb MakeSmallKb() {
  CuratedKb kb;
  EntityId umd = kb.AddEntity("University of Maryland");
  EntityId md = kb.AddEntity("Maryland");
  EntityId u21 = kb.AddEntity("Universitas 21");
  EntityId uva = kb.AddEntity("University of Virginia");
  RelationId located = kb.AddRelation("location.contained_by");
  RelationId member = kb.AddRelation("organizations_founded");
  EXPECT_TRUE(kb.AddRelationAlias(member, "member of").ok());
  EXPECT_TRUE(kb.AddFact(umd, located, md).ok());
  EXPECT_TRUE(kb.AddFact(umd, member, u21).ok());
  EXPECT_TRUE(kb.AddFact(uva, member, u21).ok());
  EXPECT_TRUE(kb.AddAnchor("university of maryland", umd, 90).ok());
  EXPECT_TRUE(kb.AddAnchor("umd", umd, 40).ok());
  EXPECT_TRUE(kb.AddAnchor("maryland", md, 70).ok());
  EXPECT_TRUE(kb.AddAnchor("maryland", umd, 30).ok());  // ambiguous
  EXPECT_TRUE(kb.AddAnchor("u21", u21, 10).ok());
  EXPECT_TRUE(kb.AddAnchor("universitas 21", u21, 25).ok());
  return kb;
}

// ---------- CuratedKb ---------------------------------------------------------

TEST(CuratedKbTest, AddAndLookupEntities) {
  CuratedKb kb;
  EntityId a = kb.AddEntity("Alpha Corp");
  EXPECT_EQ(kb.entity(a).name, "alpha corp");  // canonicalized lower case
  EXPECT_EQ(kb.AddEntity("alpha corp"), a);    // idempotent by name
  EXPECT_EQ(kb.FindEntityByName("ALPHA CORP"), a);
  EXPECT_EQ(kb.FindEntityByName("beta"), kNilId);
  EXPECT_EQ(kb.entity_count(), 1u);
}

TEST(CuratedKbTest, FactValidationAndIdempotence) {
  CuratedKb kb;
  EntityId a = kb.AddEntity("a");
  EntityId b = kb.AddEntity("b");
  RelationId r = kb.AddRelation("rel");
  EXPECT_FALSE(kb.AddFact(a, r, 99).ok());
  EXPECT_FALSE(kb.AddFact(99, r, b).ok());
  EXPECT_FALSE(kb.AddFact(a, 99, b).ok());
  EXPECT_TRUE(kb.AddFact(a, r, b).ok());
  EXPECT_TRUE(kb.AddFact(a, r, b).ok());  // duplicate ok
  EXPECT_EQ(kb.fact_count(), 1u);
  EXPECT_TRUE(kb.HasFact(a, r, b));
  EXPECT_FALSE(kb.HasFact(b, r, a));  // directed
}

TEST(CuratedKbTest, FactsInvolving) {
  CuratedKb kb = MakeSmallKb();
  EntityId umd = kb.FindEntityByName("university of maryland");
  auto facts = kb.FactsInvolving(umd);
  EXPECT_EQ(facts.size(), 2u);
  EXPECT_TRUE(kb.FactsInvolving(999).empty());
}

TEST(CuratedKbTest, AnchorStatisticsAndPopularity) {
  CuratedKb kb = MakeSmallKb();
  EntityId umd = kb.FindEntityByName("university of maryland");
  EntityId md = kb.FindEntityByName("maryland");
  EXPECT_EQ(kb.AnchorCount("maryland"), 100);
  EXPECT_EQ(kb.AnchorCount("maryland", md), 70);
  EXPECT_EQ(kb.AnchorCount("maryland", umd), 30);
  EXPECT_DOUBLE_EQ(kb.Popularity("maryland", md), 0.7);
  EXPECT_DOUBLE_EQ(kb.Popularity("maryland", umd), 0.3);
  EXPECT_DOUBLE_EQ(kb.Popularity("unseen surface", md), 0.0);
  EXPECT_FALSE(kb.AddAnchor("x", 999, 5).ok());
  EXPECT_FALSE(kb.AddAnchor("x", umd, 0).ok());
}

TEST(CuratedKbTest, AnchorLookupIsCaseInsensitive) {
  CuratedKb kb = MakeSmallKb();
  EntityId umd = kb.FindEntityByName("university of maryland");
  EXPECT_EQ(kb.AnchorCount("UMD", umd), 40);
}

TEST(CuratedKbTest, EntityCandidatesExactAnchorsRankedByPopularity) {
  CuratedKb kb = MakeSmallKb();
  EntityId md = kb.FindEntityByName("maryland");
  auto candidates = kb.EntityCandidates("maryland", 5);
  ASSERT_GE(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].id, md);
  EXPECT_DOUBLE_EQ(candidates[0].popularity, 0.7);
  EXPECT_GE(candidates[0].popularity, candidates[1].popularity);
}

TEST(CuratedKbTest, EntityCandidatesFuzzyFallback) {
  CuratedKb kb = MakeSmallKb();
  // "university maryland" has no anchor; fuzzy matching through the token
  // index should still reach the university.
  auto candidates = kb.EntityCandidates("university maryland", 5);
  ASSERT_FALSE(candidates.empty());
  EntityId umd = kb.FindEntityByName("university of maryland");
  bool found = false;
  for (const auto& c : candidates) found |= (c.id == umd);
  EXPECT_TRUE(found);
}

TEST(CuratedKbTest, EntityCandidatesCapRespected) {
  CuratedKb kb = MakeSmallKb();
  EXPECT_LE(kb.EntityCandidates("university", 2).size(), 2u);
}

TEST(CuratedKbTest, RelationCandidatesUseAliases) {
  CuratedKb kb = MakeSmallKb();
  RelationId member = kb.FindRelationByName("organizations_founded");
  auto candidates = kb.RelationCandidates("be a member of", 3);
  ASSERT_FALSE(candidates.empty());
  // The alias "member of" should pull organizations_founded to the top.
  EXPECT_EQ(candidates[0].id, member);
}

TEST(CuratedKbTest, RelationAliasValidation) {
  CuratedKb kb;
  EXPECT_FALSE(kb.AddRelationAlias(0, "x").ok());
  RelationId r = kb.AddRelation("rel");
  EXPECT_TRUE(kb.AddRelationAlias(r, "alias one").ok());
  EXPECT_EQ(kb.RelationAliases(r).size(), 1u);
  EXPECT_TRUE(kb.RelationAliases(999).empty());
}

// Every candidate list of a generated corpus, pinned by hash: the ids and
// score bits of each predicate surface's RelationCandidates and each NP
// surface's EntityCandidates and LabelCandidates, at the problem's default
// cap and at a cap wide enough to expose the whole scored tail. Any change
// to a similarity value or a ranking tie moves it. The constant was
// recorded before candidate scoring moved onto precomputed trigram profiles
// and bit-parallel Levenshtein.
TEST(CuratedKbPinTest, CandidateListsArePinned) {
  Dataset ds = GenerateReVerb45K(/*scale=*/0.35, /*seed=*/7).MoveValueOrDie();
  const std::vector<std::string> predicates = ds.okb.DistinctRelationPhrases();
  const std::vector<std::string> nps = ds.okb.DistinctNounPhrases();
  ASSERT_GT(predicates.size(), 100u);
  ASSERT_GT(nps.size(), 100u);

  std::string bytes;
  auto append = [&bytes](int64_t id, double score) {
    uint64_t bits = 0;
    std::memcpy(&bits, &score, sizeof(bits));
    bytes.append(reinterpret_cast<const char*>(&id), sizeof(id));
    bytes.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
  };
  size_t entries = 0;
  for (size_t cap : {size_t{5}, size_t{64}}) {
    for (const std::string& surface : predicates) {
      auto candidates = ds.ckb.RelationCandidates(surface, cap);
      append(-1, static_cast<double>(candidates.size()));
      for (const auto& c : candidates) append(c.id, c.score);
      entries += candidates.size();
    }
    for (const std::string& surface : nps) {
      auto candidates = ds.ckb.EntityCandidates(surface, cap);
      append(-2, static_cast<double>(candidates.size()));
      for (const auto& c : candidates) append(c.id, c.popularity);
      auto labels = ds.ckb.LabelCandidates(surface, cap);
      append(-3, static_cast<double>(labels.size()));
      for (const auto& c : labels) append(c.id, c.popularity);
      entries += candidates.size() + labels.size();
    }
  }
  EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), 0x2d4add1434b3d932ull)
      << predicates.size() << " predicate surfaces, " << nps.size()
      << " NP surfaces, " << entries << " candidates";
}

// ---------- KB serialization -----------------------------------------------------

TEST(KbIoTest, RoundTripPreservesEverything) {
  CuratedKb kb = MakeSmallKb();
  std::string prefix = ::testing::TempDir() + "/jocl_kb";
  ASSERT_TRUE(SaveCuratedKb(kb, prefix).ok());
  auto loaded = LoadCuratedKb(prefix);
  ASSERT_TRUE(loaded.ok());
  const CuratedKb& lk = loaded.ValueOrDie();

  EXPECT_EQ(lk.entity_count(), kb.entity_count());
  EXPECT_EQ(lk.relation_count(), kb.relation_count());
  EXPECT_EQ(lk.fact_count(), kb.fact_count());

  // Facts survive via names.
  EntityId umd = lk.FindEntityByName("university of maryland");
  EntityId md = lk.FindEntityByName("maryland");
  RelationId located = lk.FindRelationByName("location.contained_by");
  ASSERT_NE(umd, kNilId);
  ASSERT_NE(located, kNilId);
  EXPECT_TRUE(lk.HasFact(umd, located, md));

  // Anchor statistics survive exactly.
  EXPECT_EQ(lk.AnchorCount("maryland"), kb.AnchorCount("maryland"));
  EXPECT_DOUBLE_EQ(lk.Popularity("maryland", md), 0.7);

  // Relation aliases survive.
  RelationId member = lk.FindRelationByName("organizations_founded");
  EXPECT_EQ(lk.RelationAliases(member).size(), 1u);

  for (const char* suffix :
       {".entities.tsv", ".relations.tsv", ".facts.tsv", ".anchors.tsv"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(KbIoTest, AnchorRowsDeterministicAndComplete) {
  CuratedKb kb = MakeSmallKb();
  auto first = kb.AnchorRows();
  auto second = kb.AnchorRows();
  EXPECT_EQ(first, second);
  int64_t total = 0;
  for (const auto& [surface, entity, count] : first) total += count;
  // Sum of all rows equals the sum of all per-surface totals.
  EXPECT_EQ(total, kb.AnchorCount("university of maryland") +
                       kb.AnchorCount("umd") + kb.AnchorCount("maryland") +
                       kb.AnchorCount("u21") +
                       kb.AnchorCount("universitas 21"));
}

TEST(KbIoTest, LoadMissingFilesFails) {
  EXPECT_FALSE(LoadCuratedKb("/nonexistent/prefix").ok());
}

constexpr const char* kKbSuffixes[] = {".entities.tsv", ".relations.tsv",
                                       ".facts.tsv", ".anchors.tsv"};

// Loads a KB from the four given file bodies.
Result<CuratedKb> LoadKbFrom(const std::string& prefix,
                             const std::string (&files)[4]) {
  for (size_t f = 0; f < 4; ++f) WriteFile(prefix + kKbSuffixes[f], files[f]);
  return LoadCuratedKb(prefix);
}

void RemoveKbFiles(const std::string& prefix) {
  for (const char* suffix : kKbSuffixes) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(KbIoTest, MalformedNumbersReturnALocatedStatus) {
  const std::string prefix = ::testing::TempDir() + "/jocl_kb_numbers";
  const std::string good[4] = {"0\tfoo\n1\tbar\n", "0\trel\talias\n",
                               "0\t0\t1\n", "foo\t0\t3\n"};
  ASSERT_TRUE(LoadKbFrom(prefix, good).ok());
  struct Case {
    size_t file;
    std::string body;
    std::string where;  // expected "<file>:<row>"
  };
  const Case cases[] = {
      {0, "x1\tfoo\n", ".entities.tsv:1"},
      {0, "0\tfoo\n99999999999999999999\tbar\n", ".entities.tsv:2"},
      {0, " 0\tfoo\n", ".entities.tsv:1"},
      {1, "\n0x\trel\n", ".relations.tsv:2"},
      {1, "-\trel\n", ".relations.tsv:1"},
      {2, "0\t0\t1abc\n", ".facts.tsv:1"},
      {2, "0\t\t1\n", ".facts.tsv:1"},
      {3, "foo\t0\t12abc\n", ".anchors.tsv:1"},
      {3, "foo\t0\t-92233720368547758080\n", ".anchors.tsv:1"},
      // Counts that overflow the surface's int64 total.
      {3, "foo\t0\t9223372036854775807\nfoo\t1\t1\n", ".anchors.tsv:2"},
  };
  for (const Case& c : cases) {
    std::string files[4] = {good[0], good[1], good[2], good[3]};
    files[c.file] = c.body;
    auto loaded = LoadKbFrom(prefix, files);
    ASSERT_FALSE(loaded.ok()) << c.body;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    EXPECT_NE(loaded.status().message().find(prefix + c.where),
              std::string::npos)
        << loaded.status();
  }
  RemoveKbFiles(prefix);
}

TEST(KbIoTest, SeededMutantsLoadOrFailWithALocatedStatus) {
  GeneratorOptions options;
  options.num_entities = 60;
  options.num_relations = 10;
  options.num_triples = 300;
  Dataset ds = GenerateDataset(options, "t").MoveValueOrDie();
  const std::string prefix = ::testing::TempDir() + "/jocl_kb_mutant";
  ASSERT_TRUE(SaveCuratedKb(ds.ckb, prefix).ok());
  std::string originals[4];
  for (size_t f = 0; f < 4; ++f) {
    originals[f] = ReadFile(prefix + kKbSuffixes[f]);
    ASSERT_FALSE(originals[f].empty()) << kKbSuffixes[f];
  }
  const std::vector<std::string> probes = ds.okb.DistinctRelationPhrases();

  std::mt19937_64 rng(20211);
  constexpr size_t kPerKind = 120;
  size_t loaded = 0;
  size_t rejected = 0;
  for (size_t kind = 0; kind < kMutationKinds; ++kind) {
    for (size_t m = 0; m < kPerKind; ++m) {
      const size_t file = m % 4;
      std::string files[4] = {originals[0], originals[1], originals[2],
                              originals[3]};
      files[file] = Mutate(originals[file], kind, &rng);
      SCOPED_TRACE(std::string(kKbSuffixes[file]) + " mutation kind " +
                   std::to_string(kind) + " #" + std::to_string(m));
      auto result = LoadKbFrom(prefix, files);
      if (!result.ok()) {
        ++rejected;
        // The message names the file and row at fault.
        const std::string& message = result.status().message();
        EXPECT_NE(message.find(prefix + "."), std::string::npos) << message;
        EXPECT_NE(message.find(".tsv:"), std::string::npos) << message;
        continue;
      }
      ++loaded;
      // A mutant that loads is a well-formed KB: candidate generation over
      // its (possibly mangled) names stays in range.
      const CuratedKb& kb = result.ValueOrDie();
      for (size_t p = 0; p < probes.size(); p += 7) {
        for (const auto& c : kb.RelationCandidates(probes[p], 5)) {
          EXPECT_LT(static_cast<size_t>(c.id), kb.relation_count());
        }
      }
      for (size_t e = 0; e < kb.entity_count(); e += 5) {
        for (const auto& c : kb.EntityCandidates(
                 kb.entity(static_cast<EntityId>(e)).name, 5)) {
          EXPECT_LT(static_cast<size_t>(c.id), kb.entity_count());
        }
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded, 0u);
  RemoveKbFiles(prefix);
}

// ---------- OpenKb ---------------------------------------------------------------

TEST(OpenKbTest, AddTripleValidation) {
  OpenKb okb;
  EXPECT_TRUE(okb.AddTriple("a", "rel", "b").ok());
  EXPECT_FALSE(okb.AddTriple("", "rel", "b").ok());
  EXPECT_FALSE(okb.AddTriple("a", "  ", "b").ok());
  EXPECT_EQ(okb.size(), 1u);
}

TEST(OpenKbTest, TrimsWhitespace) {
  OpenKb okb;
  ASSERT_TRUE(okb.AddTriple("  UMD ", " be a member of ", " U21 ").ok());
  EXPECT_EQ(okb.triple(0).subject, "UMD");
  EXPECT_EQ(okb.triple(0).predicate, "be a member of");
  EXPECT_EQ(okb.triple(0).object, "U21");
}

TEST(OpenKbTest, MentionViews) {
  OpenKb okb;
  ASSERT_TRUE(okb.AddTriple("A", "r1", "B").ok());
  ASSERT_TRUE(okb.AddTriple("B", "r2", "C").ok());
  auto nps = okb.NounPhraseMentions();
  ASSERT_EQ(nps.size(), 4u);
  EXPECT_TRUE(nps[0].is_subject);
  EXPECT_EQ(nps[0].phrase, "A");
  EXPECT_FALSE(nps[1].is_subject);
  EXPECT_EQ(nps[1].phrase, "B");
  EXPECT_EQ(nps[3].triple_index, 1u);
  auto rps = okb.RelationPhraseMentions();
  ASSERT_EQ(rps.size(), 2u);
  EXPECT_EQ(rps[1].phrase, "r2");
}

TEST(OpenKbTest, DistinctPhrases) {
  OpenKb okb;
  ASSERT_TRUE(okb.AddTriple("A", "r", "B").ok());
  ASSERT_TRUE(okb.AddTriple("B", "r", "A").ok());
  ASSERT_TRUE(okb.AddTriple("A", "r2", "C").ok());
  EXPECT_EQ(okb.DistinctNounPhrases(),
            (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_EQ(okb.DistinctRelationPhrases(),
            (std::vector<std::string>{"r", "r2"}));
}

}  // namespace
}  // namespace jocl

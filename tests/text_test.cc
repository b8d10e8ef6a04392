#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "kb/curated_kb.h"
#include "text/morph_normalizer.h"
#include "text/porter_stemmer.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace jocl {
namespace {

// ---------- tokenizer ---------------------------------------------------------

TEST(TokenizerTest, LowercasesAndSplitsOnPunctuation) {
  EXPECT_EQ(Tokenize("University of Maryland, College-Park"),
            (std::vector<std::string>{"university", "of", "maryland",
                                      "college", "park"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("--- !!").empty());
}

TEST(TokenizerTest, KeepsDigits) {
  EXPECT_EQ(Tokenize("Universitas 21"),
            (std::vector<std::string>{"universitas", "21"}));
}

TEST(TokenizerTest, ContentTokensDropStopWords) {
  EXPECT_EQ(ContentTokens("the University of Maryland"),
            (std::vector<std::string>{"university", "maryland"}));
}

TEST(TokenizerTest, StopWordsContainCommonFunctionWords) {
  const auto& stop = StopWords();
  for (const char* w : {"the", "of", "is", "was", "be", "a"}) {
    EXPECT_TRUE(stop.count(w) > 0) << w;
  }
  EXPECT_EQ(stop.count("university"), 0u);
}

// ---------- Porter stemmer -----------------------------------------------------

struct StemCase {
  const char* input;
  const char* expected;
};

class PorterStemmerKnownVectors : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemmerKnownVectors, MatchesReference) {
  EXPECT_EQ(PorterStem(GetParam().input), GetParam().expected);
}

// Reference outputs from Porter's published vocabulary list.
INSTANTIATE_TEST_SUITE_P(
    Vectors, PorterStemmerKnownVectors,
    ::testing::Values(
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"}, StemCase{"feed", "feed"},
        StemCase{"agreed", "agre"}, StemCase{"plastered", "plaster"},
        StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
        StemCase{"sing", "sing"}, StemCase{"conflated", "conflat"},
        StemCase{"troubled", "troubl"}, StemCase{"sized", "size"},
        StemCase{"hopping", "hop"}, StemCase{"tanned", "tan"},
        StemCase{"falling", "fall"}, StemCase{"hissing", "hiss"},
        StemCase{"fizzed", "fizz"}, StemCase{"failing", "fail"},
        StemCase{"filing", "file"}, StemCase{"happy", "happi"},
        StemCase{"sky", "sky"}, StemCase{"relational", "relat"},
        StemCase{"conditional", "condit"}, StemCase{"rational", "ration"},
        StemCase{"digitizer", "digit"}, StemCase{"operator", "oper"},
        StemCase{"feudalism", "feudal"}, StemCase{"hopefulness", "hope"},
        StemCase{"goodness", "good"}, StemCase{"formalize", "formal"},
        StemCase{"triplicate", "triplic"}, StemCase{"formative", "form"},
        StemCase{"electrical", "electr"}, StemCase{"hopeful", "hope"},
        StemCase{"revival", "reviv"}, StemCase{"allowance", "allow"},
        StemCase{"inference", "infer"}, StemCase{"airliner", "airlin"},
        StemCase{"adjustable", "adjust"}, StemCase{"defensible", "defens"},
        StemCase{"irritant", "irrit"}, StemCase{"replacement", "replac"},
        StemCase{"adjustment", "adjust"}, StemCase{"dependent", "depend"},
        StemCase{"adoption", "adopt"}, StemCase{"homologou", "homolog"},
        StemCase{"communism", "commun"}, StemCase{"activate", "activ"},
        StemCase{"angulariti", "angular"}, StemCase{"effective", "effect"},
        StemCase{"bowdlerize", "bowdler"}, StemCase{"probate", "probat"},
        StemCase{"rate", "rate"}, StemCase{"cease", "ceas"},
        StemCase{"controll", "control"}, StemCase{"roll", "roll"}));

TEST(PorterStemmerTest, ShortWordsUntouched) {
  EXPECT_EQ(PorterStem("is"), "is");
  EXPECT_EQ(PorterStem("be"), "be");
  EXPECT_EQ(PorterStem("a"), "a");
}

TEST(PorterStemmerTest, TenseVariantsConflate) {
  EXPECT_EQ(PorterStem("founded"), PorterStem("founding"));
  EXPECT_EQ(PorterStem("founds"), PorterStem("found"));
  EXPECT_EQ(PorterStem("established"), PorterStem("establishes"));
}

TEST(PorterStemmerTest, FixedPointsAreStable) {
  // Porter is deliberately not idempotent on every word ("university" ->
  // "univers" -> "univ"), but reference fixed points must stay put.
  for (const char* word :
       {"caress", "cat", "feed", "bled", "sing", "sky", "roll", "fall"}) {
    EXPECT_EQ(PorterStem(word), word) << word;
  }
}

// ---------- morph normalizer ------------------------------------------------------

TEST(MorphNormalizerTest, RemovesTensePluralAuxiliaryDeterminer) {
  MorphNormalizer norm;
  EXPECT_EQ(norm.Normalize("was founded by"), norm.Normalize("founded by"));
  EXPECT_EQ(norm.Normalize("is a member of"), norm.Normalize("members of"));
}

TEST(MorphNormalizerTest, IrregularForms) {
  MorphNormalizer norm;
  EXPECT_EQ(norm.Normalize("took over"), norm.Normalize("takes over"));
  EXPECT_EQ(norm.Normalize("women"), norm.Normalize("woman"));
}

TEST(MorphNormalizerTest, AllStopWordPhraseFallsBack) {
  MorphNormalizer norm;
  // "is a" normalizes to its stemmed raw tokens, not the empty string.
  EXPECT_FALSE(norm.Normalize("is a").empty());
}

TEST(MorphNormalizerTest, OptionsDisableStemming) {
  MorphNormalizerOptions options;
  options.stem = false;
  options.remove_stop_words = false;
  options.apply_irregular_forms = false;
  MorphNormalizer norm(options);
  EXPECT_EQ(norm.Normalize("The Founded Companies"), "the founded companies");
}

// ---------- similarities: known values ------------------------------------------

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
}

TEST(LevenshteinTest, SimilarityNormalization) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0,
              1e-12);
}

TEST(JaroWinklerTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", "abc"), 0.0);
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.9611, 1e-3);
  EXPECT_NEAR(JaroWinklerSimilarity("dixon", "dicksonx"), 0.8133, 1e-3);
}

TEST(JaccardTest, SetBehavior) {
  std::unordered_set<std::string> a = {"x", "y"};
  std::unordered_set<std::string> b = {"y", "z"};
  EXPECT_NEAR(JaccardSimilarity(a, b), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, {}), 0.0);
}

// ---------- string-kernel oracles ---------------------------------------------
//
// The set-based character n-grams and the textbook two-row DP that the
// production kernels (sorted packed trigram profiles, bit-parallel
// Levenshtein) replaced. The kernels must agree with them bit for bit.

// Character n-gram set of a string; a string shorter than n contributes
// itself as a single gram.
std::unordered_set<std::string> CharacterNgrams(std::string_view text,
                                                size_t n) {
  std::unordered_set<std::string> grams;
  if (text.size() < n) {
    if (!text.empty()) grams.emplace(text);
    return grams;
  }
  for (size_t i = 0; i + n <= text.size(); ++i) {
    grams.emplace(text.substr(i, n));
  }
  return grams;
}

double OracleNgram(std::string_view a, std::string_view b) {
  return JaccardSimilarity(CharacterNgrams(a, 3), CharacterNgrams(b, 3));
}

size_t OracleDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  std::vector<size_t> prev(n + 1);
  std::vector<size_t> curr(n + 1);
  for (size_t i = 0; i <= n; ++i) prev[i] = i;
  for (size_t j = 1; j <= m; ++j) {
    curr[0] = j;
    for (size_t i = 1; i <= n; ++i) {
      size_t substitution = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[i] = std::min({prev[i] + 1, curr[i - 1] + 1, substitution});
    }
    std::swap(prev, curr);
  }
  return prev[n];
}

double OracleLevenshtein(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(OracleDistance(a, b)) /
                   static_cast<double>(longest);
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Random bytes over one of four alphabets: two letters (dense repeated
// trigrams), lower-case words, printable ASCII, and every byte value
// including NUL and bytes >= 0x80.
std::string RandomBytes(Rng* rng, size_t length) {
  static const std::string kAlphabets[] = {"ab", "abcdefgh ",
                                           "abcdefghijklmnopqrstuvwxyz_. 0123"};
  const uint64_t kind = rng->UniformUint64(4);
  std::string out(length, '\0');
  for (char& c : out) {
    if (kind == 3) {
      c = static_cast<char>(rng->UniformUint64(256));
    } else {
      const std::string& alphabet = kAlphabets[kind];
      c = alphabet[rng->UniformUint64(alphabet.size())];
    }
  }
  return out;
}

// Asserts every kernel agrees with the oracles on (a, b), both ways round.
void ExpectKernelsMatchOracles(std::string_view a, std::string_view b) {
  SimilarityQuery qa(a);
  SimilarityQuery qb(b);
  const double ngram = OracleNgram(a, b);
  EXPECT_EQ(Bits(qa.Ngram(b)), Bits(ngram)) << a.size() << "/" << b.size();
  EXPECT_EQ(Bits(qa.Ngram(qb.profile())), Bits(ngram));
  EXPECT_EQ(Bits(qb.Ngram(a)), Bits(ngram));
  EXPECT_EQ(Bits(NgramSimilarity(a, b)), Bits(ngram));
  const size_t distance = OracleDistance(a, b);
  EXPECT_EQ(qa.Distance(b), distance) << a.size() << "/" << b.size();
  EXPECT_EQ(qb.Distance(a), distance) << a.size() << "/" << b.size();
  EXPECT_EQ(LevenshteinDistance(a, b), distance);
  const double ld = OracleLevenshtein(a, b);
  EXPECT_EQ(Bits(qa.Levenshtein(b)), Bits(ld));
  EXPECT_EQ(Bits(qb.Levenshtein(a)), Bits(ld));
  EXPECT_EQ(Bits(LevenshteinSimilarity(a, b)),
            Bits(LevenshteinSimilarity(b, a)));
}

TEST(NgramTest, TrigramsOfShortStrings) {
  auto grams = CharacterNgrams("ab", 3);
  EXPECT_EQ(grams.size(), 1u);
  EXPECT_TRUE(grams.count("ab") > 0);
  EXPECT_EQ(CharacterNgrams("abcd", 3).size(), 2u);  // abc, bcd
  EXPECT_DOUBLE_EQ(NgramSimilarity("abcd", "abcd"), 1.0);
}

// Number of grams in the profile of \p text.
size_t ProfileSize(std::string_view text) {
  std::vector<uint32_t> grams;
  AppendNgramProfile(text, &grams);
  return grams.size();
}

TEST(NgramProfileTest, LengthTagsKeepShortStringsApart) {
  EXPECT_EQ(ProfileSize(""), 0u);
  EXPECT_EQ(ProfileSize("a"), 1u);
  EXPECT_EQ(ProfileSize("ab"), 1u);
  EXPECT_EQ(ProfileSize("abc"), 1u);
  EXPECT_EQ(ProfileSize("aaaaaa"), 1u);  // one distinct gram
  EXPECT_EQ(ProfileSize("abcd"), 2u);
  // Same bytes at different lengths, and NUL padding, never collide.
  const std::string nul_a("\0a", 2);
  const std::string a_nul("a\0", 2);
  const std::string nul_nul_a("\0\0a", 3);
  for (std::string_view x : {std::string_view("a"), std::string_view(nul_a),
                             std::string_view(a_nul),
                             std::string_view(nul_nul_a)}) {
    for (std::string_view y : {std::string_view("a"), std::string_view(nul_a),
                               std::string_view(a_nul),
                               std::string_view(nul_nul_a)}) {
      EXPECT_EQ(Bits(NgramSimilarity(x, y)), Bits(x == y ? 1.0 : 0.0));
      ExpectKernelsMatchOracles(x, y);
    }
  }
  EXPECT_EQ(Bits(NgramSimilarity("", "")), Bits(1.0));
  EXPECT_EQ(Bits(NgramSimilarity("", "a")), Bits(0.0));
}

TEST(NgramProfileTest, ProfilesAreSortedAndDistinct) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string text = RandomBytes(&rng, rng.UniformUint64(40));
    std::vector<uint32_t> grams = {7};  // appends after existing grams
    AppendNgramProfile(text, &grams);
    ASSERT_EQ(grams.front(), 7u);
    grams.erase(grams.begin());
    EXPECT_EQ(grams.size(), CharacterNgrams(text, 3).size());
    for (size_t i = 1; i < grams.size(); ++i) EXPECT_LT(grams[i - 1], grams[i]);
  }
}

TEST(NgramProfileTest, PoolSlotsMatchStandaloneProfiles) {
  Rng rng(23);
  NgramProfilePool pool;
  std::vector<std::string> texts;
  for (int i = 0; i < 64; ++i) {
    texts.push_back(RandomBytes(&rng, rng.UniformUint64(12)));
    EXPECT_EQ(pool.Add(texts.back()), texts.size() - 1);
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    SimilarityQuery query(texts[i]);
    ASSERT_EQ(pool[i].size, query.profile().size);
    for (size_t g = 0; g < pool[i].size; ++g) {
      EXPECT_EQ(pool[i].grams[g], query.profile().grams[g]);
    }
    for (size_t j = 0; j < texts.size(); ++j) {
      EXPECT_EQ(Bits(NgramJaccard(pool[i], pool[j])),
                Bits(OracleNgram(texts[i], texts[j])));
    }
  }
}

TEST(LevenshteinKernelTest, PatternLengthsAroundTheWordSize) {
  Rng rng(29);
  const size_t lengths[] = {0, 1, 2, 3, 31, 62, 63, 64, 65, 66, 127, 130};
  for (size_t la : lengths) {
    for (size_t lb : lengths) {
      const std::string a = RandomBytes(&rng, la);
      const std::string b = RandomBytes(&rng, lb);
      ExpectKernelsMatchOracles(a, b);
      // A one-byte edit of a, so the distance is small as well as large.
      std::string c = a;
      if (!c.empty()) c[rng.UniformUint64(c.size())] ^= 0x5a;
      ExpectKernelsMatchOracles(a, c);
    }
  }
}

TEST(LevenshteinKernelTest, OneQueryAgainstManyStrings) {
  // The query's reused buffers must not carry state from one comparison
  // to the next, whichever path (bit-parallel or DP) each one takes.
  Rng rng(31);
  for (size_t query_length : {size_t{5}, size_t{64}, size_t{65}, size_t{90}}) {
    const std::string text = RandomBytes(&rng, query_length);
    SimilarityQuery query(text);
    for (int trial = 0; trial < 60; ++trial) {
      const std::string other = RandomBytes(&rng, rng.UniformUint64(100));
      EXPECT_EQ(query.Distance(other), OracleDistance(text, other));
      EXPECT_EQ(Bits(query.Levenshtein(other)),
                Bits(OracleLevenshtein(text, other)));
      EXPECT_EQ(Bits(query.Ngram(other)), Bits(OracleNgram(text, other)));
    }
  }
}

class KernelOracleProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelOracleProperties, BitEqualToSetAndDpOracles) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 250; ++trial) {
    const size_t la = rng.UniformUint64(72);
    const std::string a = RandomBytes(&rng, la);
    // Half the time b shares a's alphabet and most of its bytes.
    std::string b = RandomBytes(&rng, rng.UniformUint64(72));
    if (rng.Bernoulli(0.5) && !a.empty()) {
      b = a;
      for (int edits = static_cast<int>(rng.UniformUint64(4)); edits > 0;
           --edits) {
        const size_t at = rng.UniformUint64(b.size() + 1);
        switch (rng.UniformUint64(3)) {
          case 0:
            b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), 'x');
            break;
          case 1:
            if (at < b.size()) b.erase(at, 1);
            break;
          default:
            if (at < b.size()) b[at] = static_cast<char>(0xe9);
        }
      }
    }
    ExpectKernelsMatchOracles(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelOracleProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CuratedKbProfileTest, OutOfRangeAliasLeavesProfilesUntouched) {
  // A KB that saw rejected alias adds scores every phrase bit-identically
  // to one that never did, including relations and aliases added after.
  auto build = [](bool with_rejected_adds) {
    CuratedKb kb;
    RelationId founded = kb.AddRelation("organizations_founded");
    EXPECT_TRUE(kb.AddRelationAlias(founded, "founded by").ok());
    if (with_rejected_adds) {
      EXPECT_FALSE(kb.AddRelationAlias(-1, "located in").ok());
      EXPECT_FALSE(kb.AddRelationAlias(1, "located in").ok());
      EXPECT_FALSE(kb.AddRelationAlias(99, "member of").ok());
    }
    RelationId located = kb.AddRelation("location.contained_by");
    EXPECT_TRUE(kb.AddRelationAlias(located, "is located in").ok());
    EXPECT_TRUE(kb.AddRelationAlias(founded, "was founded by").ok());
    return kb;
  };
  CuratedKb clean = build(false);
  CuratedKb touched = build(true);
  ASSERT_EQ(touched.relation_count(), 2u);
  EXPECT_EQ(touched.RelationAliases(0).size(), 2u);
  EXPECT_EQ(touched.RelationAliases(1).size(), 1u);
  for (const char* phrase : {"located in", "founded by", "member of", "x",
                             "organizations founded", ""}) {
    auto expected = clean.RelationCandidates(phrase, 8);
    auto actual = touched.RelationCandidates(phrase, 8);
    ASSERT_EQ(actual.size(), expected.size()) << phrase;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id) << phrase;
      EXPECT_EQ(Bits(actual[i].score), Bits(expected[i].score)) << phrase;
    }
  }
}

// ---------- similarity properties (parameterized sweep) ----------------------------

class SimilarityProperties : public ::testing::TestWithParam<uint64_t> {};

std::string RandomPhrase(Rng* rng) {
  static const char* kWords[] = {"university", "maryland", "umd",  "warren",
                                 "buffett",    "founded",  "by",   "club",
                                 "kandor",     "merith",   "21",   "of"};
  size_t n = 1 + rng->UniformUint64(4);
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ' ';
    out += kWords[rng->UniformUint64(std::size(kWords))];
  }
  return out;
}

TEST_P(SimilarityProperties, SymmetricBoundedIdentity) {
  Rng rng(GetParam());
  IdfTable idf;
  for (int i = 0; i < 30; ++i) idf.AddPhrase(RandomPhrase(&rng));
  for (int trial = 0; trial < 40; ++trial) {
    std::string a = RandomPhrase(&rng);
    std::string b = RandomPhrase(&rng);
    for (auto sim : {LevenshteinSimilarity(a, b), JaroSimilarity(a, b),
                     JaroWinklerSimilarity(a, b), NgramSimilarity(a, b),
                     idf.Similarity(a, b)}) {
      EXPECT_GE(sim, 0.0);
      EXPECT_LE(sim, 1.0 + 1e-12);
    }
    EXPECT_NEAR(LevenshteinSimilarity(a, b), LevenshteinSimilarity(b, a),
                1e-12);
    EXPECT_NEAR(JaroSimilarity(a, b), JaroSimilarity(b, a), 1e-12);
    EXPECT_NEAR(NgramSimilarity(a, b), NgramSimilarity(b, a), 1e-12);
    EXPECT_NEAR(idf.Similarity(a, b), idf.Similarity(b, a), 1e-12);
    EXPECT_DOUBLE_EQ(LevenshteinSimilarity(a, a), 1.0);
    EXPECT_DOUBLE_EQ(JaroWinklerSimilarity(a, a), 1.0);
    EXPECT_DOUBLE_EQ(idf.Similarity(a, a), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- IDF table ------------------------------------------------------------

TEST(IdfTableTest, RareTokensDominate) {
  IdfTable idf;
  // "university" appears many times; "buffett" once.
  for (int i = 0; i < 50; ++i) idf.AddPhrase("university of somewhere");
  idf.AddPhrase("warren buffett");
  // Sharing the rare word scores higher than sharing the frequent one.
  double rare = idf.Similarity("warren buffett", "buffett");
  double frequent =
      idf.Similarity("university of somewhere", "university of elsewhere");
  EXPECT_GT(rare, frequent);
}

TEST(IdfTableTest, PaperFormulaOnTinyCorpus) {
  IdfTable idf;
  idf.AddPhrase("a b");
  idf.AddPhrase("b c");
  // f(a)=1, f(b)=2, f(c)=1. Sim("a b","b c") =
  // w(b) / (w(a)+w(b)+w(c)) with w(x) = 1/log(1+f(x)).
  double wa = 1.0 / std::log(2.0);
  double wb = 1.0 / std::log(3.0);
  EXPECT_NEAR(idf.Similarity("a b", "b c"), wb / (wa + wb + wa), 1e-12);
}

TEST(IdfTableTest, DisjointTokensScoreZero) {
  IdfTable idf;
  idf.AddPhrase("x y");
  EXPECT_DOUBLE_EQ(idf.Similarity("x", "z"), 0.0);
}

TEST(IdfTableTest, FrequencyLookup) {
  IdfTable idf;
  idf.AddPhrases({"a b", "a c", "a"});
  EXPECT_EQ(idf.Frequency("a"), 3);
  EXPECT_EQ(idf.Frequency("b"), 1);
  EXPECT_EQ(idf.Frequency("zzz"), 0);
  EXPECT_EQ(idf.vocabulary_size(), 3u);
}

}  // namespace
}  // namespace jocl

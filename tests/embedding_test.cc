#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <sstream>
#include <string>

#include "embedding/corpus.h"
#include "embedding/embedding_io.h"
#include "embedding/embedding_table.h"
#include "embedding/word2vec.h"
#include "seeded_mutants.h"

namespace jocl {
namespace {

// ---------- EmbeddingTable -----------------------------------------------------

TEST(EmbeddingTableTest, SetAndLookup) {
  EmbeddingTable table(3);
  table.Set("foo", {1.0f, 0.0f, 0.0f});
  EXPECT_TRUE(table.Contains("foo"));
  EXPECT_FALSE(table.Contains("bar"));
  ASSERT_NE(table.Vector("foo"), nullptr);
  EXPECT_FLOAT_EQ(table.Vector("foo")[0], 1.0f);
  EXPECT_EQ(table.Vector("bar"), nullptr);
  // Overwrite keeps size stable.
  table.Set("foo", {0.0f, 1.0f, 0.0f});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_FLOAT_EQ(table.Vector("foo")[1], 1.0f);
}

TEST(EmbeddingTableTest, PhraseVectorAveragesKnownTokens) {
  EmbeddingTable table(2);
  table.Set("university", {1.0f, 0.0f});
  table.Set("maryland", {0.0f, 1.0f});
  auto v = table.PhraseVector("University of Maryland");  // "of" unknown
  EXPECT_FLOAT_EQ(v[0], 0.5f);
  EXPECT_FLOAT_EQ(v[1], 0.5f);
  auto zero = table.PhraseVector("completely unknown");
  EXPECT_FLOAT_EQ(zero[0], 0.0f);
  EXPECT_FLOAT_EQ(zero[1], 0.0f);
}

TEST(EmbeddingTableTest, CosineProperties) {
  std::vector<float> x = {1.0f, 0.0f};
  std::vector<float> y = {0.0f, 2.0f};
  std::vector<float> z = {2.0f, 0.0f};
  EXPECT_NEAR(EmbeddingTable::Cosine(x, y), 0.0, 1e-9);
  EXPECT_NEAR(EmbeddingTable::Cosine(x, z), 1.0, 1e-9);
  EXPECT_NEAR(EmbeddingTable::Cosine(x, x), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(EmbeddingTable::Cosine({0.0f, 0.0f}, x), 0.0);
  EXPECT_DOUBLE_EQ(EmbeddingTable::Cosine({1.0f}, x), 0.0);  // dim mismatch
}

TEST(EmbeddingTableTest, PhraseSimilarityFallbackAndClamp) {
  EmbeddingTable table(2);
  table.Set("a", {1.0f, 0.0f});
  table.Set("b", {-1.0f, 0.0f});
  EXPECT_DOUBLE_EQ(table.PhraseSimilarity("unknown", "a", 0.5), 0.5);
  // Opposite vectors: cosine -1 clamps to 0.
  EXPECT_DOUBLE_EQ(table.PhraseSimilarity("a", "b"), 0.0);
  EXPECT_NEAR(table.PhraseSimilarity("a", "a"), 1.0, 1e-9);
}

// ---------- corpus -------------------------------------------------------------

TEST(CorpusTest, TriplesBecomeSentences) {
  OpenKb okb;
  ASSERT_TRUE(okb.AddTriple("University of Maryland", "be a member of",
                            "Universitas 21")
                  .ok());
  auto corpus = BuildTripleCorpus(okb);
  ASSERT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus[0],
            (std::vector<std::string>{"university", "of", "maryland", "be",
                                      "a", "member", "of", "universitas",
                                      "21"}));
  AppendSentences({{"extra", "sentence"}}, &corpus);
  EXPECT_EQ(corpus.size(), 2u);
}

// ---------- Word2Vec -----------------------------------------------------------

TEST(Word2VecTest, RejectsEmptyCorpus) {
  Word2Vec trainer;
  EXPECT_FALSE(trainer.Train({}).ok());
}

TEST(Word2VecTest, DeterministicForFixedSeed) {
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 30; ++i) {
    corpus.push_back({"alpha", "beta", "gamma"});
    corpus.push_back({"alpha", "beta", "delta"});
  }
  Word2VecOptions options;
  options.dim = 8;
  options.epochs = 2;
  options.seed = 5;
  auto first = Word2Vec(options).Train(corpus);
  auto second = Word2Vec(options).Train(corpus);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const float* va = first.ValueOrDie().Vector("alpha");
  const float* vb = second.ValueOrDie().Vector("alpha");
  ASSERT_NE(va, nullptr);
  ASSERT_NE(vb, nullptr);
  for (size_t d = 0; d < 8; ++d) EXPECT_FLOAT_EQ(va[d], vb[d]);
}

TEST(Word2VecTest, MinCountFiltersRareWords) {
  std::vector<std::vector<std::string>> corpus = {
      {"common", "common", "rare"}, {"common", "other"}};
  Word2VecOptions options;
  options.min_count = 2;
  options.dim = 4;
  auto table = Word2Vec(options).Train(corpus);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table.ValueOrDie().Contains("common"));
  EXPECT_FALSE(table.ValueOrDie().Contains("rare"));
}

// ---------- embedding IO -------------------------------------------------------

TEST(EmbeddingIoTest, TextRoundTrip) {
  EmbeddingTable table(3);
  table.Set("alpha", {1.0f, -0.5f, 0.25f});
  table.Set("beta", {0.0f, 2.0f, -1.0f});
  std::string path = ::testing::TempDir() + "/jocl_embeddings.txt";
  ASSERT_TRUE(SaveEmbeddingsText(table, path).ok());
  auto loaded = LoadEmbeddingsText(path);
  ASSERT_TRUE(loaded.ok());
  const EmbeddingTable& t = loaded.ValueOrDie();
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dim(), 3u);
  ASSERT_NE(t.Vector("alpha"), nullptr);
  EXPECT_FLOAT_EQ(t.Vector("alpha")[1], -0.5f);
  EXPECT_FLOAT_EQ(t.Vector("beta")[2], -1.0f);
  std::remove(path.c_str());
}

TEST(EmbeddingIoTest, WordsSnapshotSorted) {
  EmbeddingTable table(1);
  table.Set("zeta", {1.0f});
  table.Set("alpha", {2.0f});
  EXPECT_EQ(table.Words(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(EmbeddingIoTest, LoadRejectsMissingAndMalformed) {
  EXPECT_FALSE(LoadEmbeddingsText("/nonexistent/emb.txt").ok());
  std::string path = ::testing::TempDir() + "/jocl_bad_emb.txt";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("2 3\nword 1.0 2.0\n", f);  // truncated vector
  fclose(f);
  EXPECT_FALSE(LoadEmbeddingsText(path).ok());
  // A header dim no file of this size can hold is rejected before any
  // allocation (it used to throw std::bad_alloc), naming the header.
  WriteFile(path, "1 200000000000\nw 1.0\n");
  auto huge = LoadEmbeddingsText(path);
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("header"), std::string::npos)
      << huge.status().message();
  // A row whose value count is not the header's dim names the row.
  WriteFile(path, "2 2\na 1.0 2.0\nb 1.0 2.0 3.0\n");
  auto wide = LoadEmbeddingsText(path);
  ASSERT_FALSE(wide.ok());
  EXPECT_NE(wide.status().message().find("row 2"), std::string::npos)
      << wide.status().message();
  std::remove(path.c_str());
}

TEST(EmbeddingIoTest, SeededMutantsLoadOrFailWithADescriptiveStatus) {
  EmbeddingTable table(4);
  table.Set("alpha", {1.0f, -0.5f, 0.25f, 3.0f});
  table.Set("beta", {0.0f, 2.0f, -1.0f, 0.125f});
  table.Set("gamma", {-7.5f, 0.5f, 1e-3f, 42.0f});
  const std::string path = ::testing::TempDir() + "/jocl_mutant_emb.txt";
  ASSERT_TRUE(SaveEmbeddingsText(table, path).ok());
  const std::string original = ReadFile(path);
  ASSERT_FALSE(original.empty());

  std::mt19937_64 rng(20212);
  constexpr size_t kPerKind = 200;
  size_t loaded = 0;
  size_t rejected = 0;
  for (size_t kind = 0; kind < kMutationKinds; ++kind) {
    for (size_t m = 0; m < kPerKind; ++m) {
      const std::string mutant = Mutate(original, kind, &rng);
      WriteFile(path, mutant);
      SCOPED_TRACE("mutation kind " + std::to_string(kind) + " #" +
                   std::to_string(m));
      auto result = LoadEmbeddingsText(path);
      if (!result.ok()) {
        ++rejected;
        // The message names the header or the row at fault.
        const std::string& message = result.status().message();
        EXPECT_TRUE(message.find("row") != std::string::npos ||
                    message.find("header") != std::string::npos)
            << message;
        continue;
      }
      ++loaded;
      std::istringstream header(mutant);
      size_t count = 0;
      size_t dim = 0;
      ASSERT_TRUE(static_cast<bool>(header >> count >> dim));
      EXPECT_EQ(result.ValueOrDie().dim(), dim);
      EXPECT_LE(result.ValueOrDie().size(), count);
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded, 0u);
  std::remove(path.c_str());
}

// The core distributional property the Sim_emb signal relies on: words
// sharing contexts end up closer than words that never co-occur.
TEST(Word2VecTest, SharedContextWordsAreCloser) {
  std::vector<std::vector<std::string>> corpus;
  // "umd" and "maryland" both occur with {college, campus, research};
  // "banana" occurs with {fruit, yellow, sweet}.
  for (int i = 0; i < 200; ++i) {
    corpus.push_back({"umd", "college", "campus", "research"});
    corpus.push_back({"maryland", "college", "campus", "research"});
    corpus.push_back({"banana", "fruit", "yellow", "sweet"});
  }
  Word2VecOptions options;
  options.dim = 16;
  options.epochs = 8;
  options.subsample = 0.0;  // tiny vocabulary; keep every token
  options.seed = 11;
  auto result = Word2Vec(options).Train(corpus);
  ASSERT_TRUE(result.ok());
  const EmbeddingTable& table = result.ValueOrDie();
  double same_context = table.PhraseSimilarity("umd", "maryland");
  double different_context = table.PhraseSimilarity("umd", "banana");
  EXPECT_GT(same_context, different_context);
  EXPECT_GT(same_context, 0.5);
}

}  // namespace
}  // namespace jocl

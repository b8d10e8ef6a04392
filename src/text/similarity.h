#ifndef JOCL_TEXT_SIMILARITY_H_
#define JOCL_TEXT_SIMILARITY_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace jocl {

/// \brief Read-only view of a string's trigram profile: its distinct
/// character trigrams, sorted ascending, each packed exactly into a
/// `uint32_t` — a length tag in the top byte and the gram's bytes below
/// it. A non-empty string shorter than 3 bytes is one gram stored whole
/// under its own length tag (1 or 2), so grams of different lengths never
/// collide; the empty string has no grams.
struct NgramProfileView {
  const uint32_t* grams = nullptr;
  size_t size = 0;
};

/// \brief Appends the trigram profile of \p text to \p out (the appended
/// grams are sorted and distinct).
void AppendNgramProfile(std::string_view text, std::vector<uint32_t>* out);

/// \brief Jaccard similarity of two trigram profiles by a sorted merge.
/// Two empty profiles have similarity 1, one empty profile 0 — the
/// conventions of `JaccardSimilarity` over the same gram sets, with the
/// same intersection and union counts, so the value is bit-identical.
double NgramJaccard(NgramProfileView a, NgramProfileView b);

/// \brief Append-only flat store of trigram profiles addressed by slot, so
/// a whole vocabulary's profiles share two allocations.
class NgramProfilePool {
 public:
  /// Stores the profile of \p text; returns its slot (0, 1, 2, ...).
  size_t Add(std::string_view text);

  NgramProfileView operator[](size_t slot) const {
    return {grams_.data() + offsets_[slot],
            offsets_[slot + 1] - offsets_[slot]};
  }

 private:
  std::vector<uint32_t> grams_;
  std::vector<size_t> offsets_{0};
};

/// \brief One string prepared for repeated comparison against many others:
/// its trigram profile and, when it is at most 64 bytes, its Myers/Hyyrö
/// bit-parallel Levenshtein pattern. Built once per query string (a
/// candidate-generation call, an F5 relation row), it scores each other
/// string without allocating after warm-up. The paper's `Ngram` and `LD`
/// relation-linking signals (§3.2.4) are computed only here.
///
/// The query keeps a view of \p text, which must outlive it. The scoring
/// methods reuse internal buffers, so a query is not shared across threads.
class SimilarityQuery {
 public:
  explicit SimilarityQuery(std::string_view text);

  NgramProfileView profile() const { return {grams_.data(), grams_.size()}; }

  /// Jaccard similarity of the trigram sets against a precomputed profile.
  double Ngram(NgramProfileView other) const;
  /// Jaccard similarity of the trigram sets against \p other.
  double Ngram(std::string_view other);

  /// Exact Levenshtein edit distance (unit costs) to \p other: bit-parallel
  /// for a pattern of at most 64 bytes, a one-row DP beyond that.
  size_t Distance(std::string_view other);
  /// `1 - Distance / max(|text|, |other|)`; two empty strings score 1.
  double Levenshtein(std::string_view other);

 private:
  static constexpr size_t kMaxPattern = 64;

  size_t DynamicProgrammingDistance(std::string_view other);

  std::string_view text_;
  std::vector<uint32_t> grams_;
  std::vector<uint32_t> other_grams_;
  std::vector<size_t> row_;
  // Bit i of match_[c] is set iff text_[i] == c (patterns of <= 64 bytes).
  uint64_t match_[256] = {};
};

/// \brief Levenshtein edit distance between two strings (unit costs).
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// \brief Levenshtein similarity normalized to [0, 1]:
/// `1 - LD(a, b) / max(|a|, |b|)`; two empty strings are fully similar.
/// This is the paper's "LD" relation-linking signal (§3.2.4).
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// \brief Jaro similarity in [0, 1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// \brief Jaro-Winkler similarity in [0, 1] with the standard prefix boost
/// (scaling 0.1, prefix capped at 4). Used by the Text Similarity baseline
/// (Galárraga et al. 2014).
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// \brief Jaccard similarity of two token sets in [0, 1]. Two empty sets
/// have similarity 1 by convention.
double JaccardSimilarity(const std::unordered_set<std::string>& a,
                         const std::unordered_set<std::string>& b);

/// \brief Jaccard similarity between the character trigram sets of the two
/// strings. The paper's "Ngram" relation-linking signal (§3.2.4).
double NgramSimilarity(std::string_view a, std::string_view b);

/// \brief Corpus-level word-frequency table backing IDF token overlap.
///
/// `f(x)` is the frequency of word x over all NPs (or RPs) in the OKB
/// (paper §3.1.3). Build once per data set, then score pairs.
class IdfTable {
 public:
  IdfTable() = default;

  /// Counts every token of every phrase into the table.
  void AddPhrases(const std::vector<std::string>& phrases);

  /// Counts the tokens of a single phrase.
  void AddPhrase(std::string_view phrase);

  /// Frequency of a token (0 for unseen tokens).
  int64_t Frequency(const std::string& token) const;

  /// Total number of distinct tokens seen.
  size_t vocabulary_size() const { return counts_.size(); }

  /// \brief IDF-weighted token overlap similarity between two phrases
  /// (paper §3.1.3):
  ///   sum_{x in T(a) ∩ T(b)} 1/log(1+f(x))  /
  ///   sum_{x in T(a) ∪ T(b)} 1/log(1+f(x)).
  /// Tokens unseen at build time get frequency 1 (maximally informative).
  /// Returns 1.0 when both token sets are empty, 0.0 when disjoint.
  double Similarity(std::string_view a, std::string_view b) const;

 private:
  double TokenWeight(const std::string& token) const;

  std::unordered_map<std::string, int64_t> counts_;
};

}  // namespace jocl

#endif  // JOCL_TEXT_SIMILARITY_H_

#include "text/similarity.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "text/tokenizer.h"

namespace jocl {

namespace {

// The length tag of a full trigram, in the top byte of its packed form.
constexpr uint32_t kTrigramTag = 3u << 24;

}  // namespace

void AppendNgramProfile(std::string_view text, std::vector<uint32_t>* out) {
  const size_t start = out->size();
  const auto* bytes = reinterpret_cast<const unsigned char*>(text.data());
  if (text.size() < 3) {
    // A short string is its own single gram, tagged with its length.
    if (text.empty()) return;
    uint32_t gram = static_cast<uint32_t>(text.size()) << 24;
    for (size_t i = 0; i < text.size(); ++i) {
      gram |= static_cast<uint32_t>(bytes[i]) << (8 * (text.size() - 1 - i));
    }
    out->push_back(gram);
    return;
  }
  uint32_t window = (static_cast<uint32_t>(bytes[0]) << 8) | bytes[1];
  for (size_t i = 2; i < text.size(); ++i) {
    window = ((window << 8) | bytes[i]) & 0xFFFFFFu;
    out->push_back(kTrigramTag | window);
  }
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(start), out->end());
  out->erase(std::unique(out->begin() + static_cast<std::ptrdiff_t>(start),
                         out->end()),
             out->end());
}

double NgramJaccard(NgramProfileView a, NgramProfileView b) {
  if (a.size == 0 && b.size == 0) return 1.0;
  if (a.size == 0 || b.size == 0) return 0.0;
  size_t i = 0;
  size_t j = 0;
  size_t intersection = 0;
  while (i < a.size && j < b.size) {
    const uint32_t x = a.grams[i];
    const uint32_t y = b.grams[j];
    intersection += x == y;
    i += x <= y;
    j += y <= x;
  }
  const size_t unions = a.size + b.size - intersection;
  return static_cast<double>(intersection) / static_cast<double>(unions);
}

size_t NgramProfilePool::Add(std::string_view text) {
  AppendNgramProfile(text, &grams_);
  offsets_.push_back(grams_.size());
  return offsets_.size() - 2;
}

SimilarityQuery::SimilarityQuery(std::string_view text) : text_(text) {
  AppendNgramProfile(text_, &grams_);
  if (text_.size() <= kMaxPattern) {
    for (size_t i = 0; i < text_.size(); ++i) {
      match_[static_cast<unsigned char>(text_[i])] |= uint64_t{1} << i;
    }
  }
}

double SimilarityQuery::Ngram(NgramProfileView other) const {
  return NgramJaccard(profile(), other);
}

double SimilarityQuery::Ngram(std::string_view other) {
  other_grams_.clear();
  AppendNgramProfile(other, &other_grams_);
  return Ngram(NgramProfileView{other_grams_.data(), other_grams_.size()});
}

size_t SimilarityQuery::Distance(std::string_view other) {
  const size_t m = text_.size();
  if (m > kMaxPattern) return DynamicProgrammingDistance(other);
  if (m == 0) return other.size();
  // Hyyrö's bit-vector form of Myers' algorithm ("A bit-vector algorithm
  // for computing Levenshtein and Damerau edit distances", 2003): one
  // column of the DP matrix per byte of `other`, held as vertical +1/-1
  // delta masks; `distance` tracks the bottom cell D[m][j] exactly.
  uint64_t vp = ~uint64_t{0};
  uint64_t vn = 0;
  const uint64_t last = uint64_t{1} << (m - 1);
  size_t distance = m;
  for (const char ch : other) {
    const uint64_t eq = match_[static_cast<unsigned char>(ch)];
    const uint64_t d0 = (((eq & vp) + vp) ^ vp) | eq | vn;
    uint64_t hp = vn | ~(d0 | vp);
    uint64_t hn = d0 & vp;
    distance += (hp & last) != 0;
    distance -= (hn & last) != 0;
    // Row 0 is D[0][j] = j, so every column starts with a +1 step.
    hp = (hp << 1) | 1;
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = hp & d0;
  }
  return distance;
}

size_t SimilarityQuery::DynamicProgrammingDistance(std::string_view other) {
  std::string_view a = text_;
  std::string_view b = other;
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  if (n == 0) return b.size();
  row_.resize(n + 1);
  for (size_t i = 0; i <= n; ++i) row_[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    size_t diagonal = row_[0];
    row_[0] = j;
    for (size_t i = 1; i <= n; ++i) {
      const size_t above = row_[i];
      row_[i] = std::min({above + 1, row_[i - 1] + 1,
                          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row_[n];
}

double SimilarityQuery::Levenshtein(std::string_view other) {
  const size_t longest = std::max(text_.size(), other.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(Distance(other)) /
                   static_cast<double>(longest);
}

// The pairwise forms build a query over the shorter string, so the
// bit-parallel kernel applies whenever either side fits in 64 bytes.
size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  return SimilarityQuery(a).Distance(b);
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  return SimilarityQuery(a).Levenshtein(b);
}

double NgramSimilarity(std::string_view a, std::string_view b) {
  return SimilarityQuery(a).Ngram(b);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  const size_t window =
      a.size() > b.size() ? a.size() / 2 : b.size() / 2;
  const size_t match_window = window == 0 ? 0 : window - 1;
  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > match_window ? i - match_window : 0;
    size_t hi = std::min(b.size(), i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = true;
      b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = static_cast<double>(matches);
  return (m / static_cast<double>(a.size()) +
          m / static_cast<double>(b.size()) +
          (m - static_cast<double>(transpositions) / 2.0) / m) /
         3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  constexpr double kScaling = 0.1;
  return jaro + static_cast<double>(prefix) * kScaling * (1.0 - jaro);
}

double JaccardSimilarity(const std::unordered_set<std::string>& a,
                         const std::unordered_set<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  size_t intersection = 0;
  for (const auto& item : small) {
    if (large.count(item) > 0) ++intersection;
  }
  size_t unions = a.size() + b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(unions);
}

void IdfTable::AddPhrases(const std::vector<std::string>& phrases) {
  for (const auto& phrase : phrases) AddPhrase(phrase);
}

void IdfTable::AddPhrase(std::string_view phrase) {
  for (const auto& token : Tokenize(phrase)) {
    ++counts_[token];
  }
}

int64_t IdfTable::Frequency(const std::string& token) const {
  auto it = counts_.find(token);
  return it == counts_.end() ? 0 : it->second;
}

double IdfTable::TokenWeight(const std::string& token) const {
  int64_t f = std::max<int64_t>(1, Frequency(token));
  return 1.0 / std::log(1.0 + static_cast<double>(f));
}

double IdfTable::Similarity(std::string_view a, std::string_view b) const {
  std::vector<std::string> tokens_a = Tokenize(a);
  std::vector<std::string> tokens_b = Tokenize(b);
  std::unordered_set<std::string> set_a(tokens_a.begin(), tokens_a.end());
  std::unordered_set<std::string> set_b(tokens_b.begin(), tokens_b.end());
  if (set_a.empty() && set_b.empty()) return 1.0;
  if (set_a.empty() || set_b.empty()) return 0.0;
  double intersection_weight = 0.0;
  double union_weight = 0.0;
  for (const auto& token : set_a) {
    double w = TokenWeight(token);
    union_weight += w;
    if (set_b.count(token) > 0) intersection_weight += w;
  }
  for (const auto& token : set_b) {
    if (set_a.count(token) == 0) union_weight += TokenWeight(token);
  }
  if (union_weight <= 0.0) return 0.0;
  return intersection_weight / union_weight;
}

}  // namespace jocl

#ifndef JOCL_CORE_SIGNAL_CACHE_H_
#define JOCL_CORE_SIGNAL_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "core/signals.h"
#include "kb/curated_kb.h"
#include "text/similarity.h"

namespace jocl {

/// \brief F5's relation-linking row for one (predicate surface, candidate
/// relation) pair (paper §3.2): the best `Ngram`, `Ld`, `Emb` and `Ppdb`
/// match of the surface against the relation's canonical name and every
/// alias.
struct RelationRow {
  double ngram = 0.0;
  double ld = 0.0;
  double emb = 0.0;
  double ppdb = 0.0;
};

/// \brief Per-surface memoization of every pairwise signal of §3.1–3.2,
/// built once per problem from its distinct surfaces.
///
/// `SignalBundle` answers signal queries from raw phrases: `Emb` tokenizes
/// both phrases, averages word vectors into freshly allocated phrase
/// vectors and takes a cosine — per pair, per linking candidate, per
/// relation alias, and again for the learner's second graph build. The
/// cache front-loads all per-phrase work at registration time:
///
///  * **Embeddings** live in a flat arena of unit-normalized phrase
///    vectors, so `Emb` collapses to one dot product (cosine of unit
///    vectors), with no tokenization and no allocation.
///  * **PPDB** cluster representatives are interned to small integer ids;
///    `Ppdb` is an integer compare.
///  * **AMIE** morphological normalization and evidence checks happen once
///    per phrase; the pair query hits the miner's rule set directly with
///    pre-normalized forms.
///  * **KBP** classifications are memoized; `Kbp` is an id compare.
///  * **Relation rows** — F5's best match over a relation's name and
///    aliases — are computed once per registered (predicate surface,
///    candidate relation) pair, so graph builds read them instead of
///    re-running `Ngram`/`Ld` per triple and per batch.
///
/// Queries fall back to the bundle for phrases that were never registered,
/// so the cache is a drop-in provider wherever a `SignalBundle` is used.
/// Semantics match `SignalBundle` exactly (same neutral-0.5 absence
/// handling); `Emb` values may differ from the uncached path by float
/// rounding only (unit-normalize-then-dot vs cosine of raw sums).
class SignalCache {
 public:
  static constexpr size_t kUnknown = static_cast<size_t>(-1);

  SignalCache() = default;
  // index_ keys string_views into phrases_; moves keep deque element
  // addresses stable, copies would not — and nothing needs them.
  SignalCache(const SignalCache&) = delete;
  SignalCache& operator=(const SignalCache&) = delete;
  SignalCache(SignalCache&&) = default;
  SignalCache& operator=(SignalCache&&) = default;

  /// Builds the cache for a problem: registers every distinct surface of
  /// all three roles plus every CKB candidate entity name, relation name
  /// and relation alias the graph builder will query against them.
  static SignalCache ForProblem(const JoclProblem& problem,
                                const SignalBundle& signals,
                                const CuratedKb& ckb);

  /// Builds the cache over an explicit phrase list. Distinct phrases
  /// receive sequential ids 0..n-1 in input order, so callers can address
  /// the cache by position.
  static SignalCache ForPhrases(const std::vector<std::string>& phrases,
                                const SignalBundle& signals);

  /// Registers a phrase and returns its id (idempotent). Must be followed
  /// by Finalize() before any signal query.
  size_t Add(std::string_view phrase);

  /// Registers a predicate surface with one of its candidate relations:
  /// the surface, the relation's name and its aliases become phrases, and
  /// the next Finalize() computes the pair's RelationRow. Idempotent.
  void AddRelationCandidate(std::string_view surface, RelationId relation,
                            const CuratedKb& ckb);

  /// Registers everything a graph build over \p problem will query: every
  /// distinct surface of all three roles, every candidate entity name, and
  /// every (predicate surface, candidate relation) pair. Idempotent.
  void RegisterProblem(const JoclProblem& problem, const CuratedKb& ckb);

  /// Computes every per-phrase memo and the pending relation rows.
  /// **Append-only**: repeated calls only process phrases and relation
  /// pairs registered since the previous Finalize —
  /// existing arenas and interned ids are extended, never rebuilt — so a
  /// streaming session pays per batch only for its new surfaces. Query
  /// answers are identical to a fresh build over the same phrase set
  /// (memos are per-phrase and intern ids are only ever compared for
  /// equality).
  void Finalize(const SignalBundle& signals);

  /// Number of phrases covered by the last Finalize().
  size_t finalized_size() const { return finalized_; }

  /// Id of a registered phrase, or kUnknown.
  size_t IdOf(std::string_view phrase) const {
    auto it = index_.find(phrase);
    return it == index_.end() ? kUnknown : it->second;
  }

  size_t size() const { return phrases_.size(); }
  const SignalBundle& bundle() const { return *bundle_; }

  /// The memoized row of (predicate surface id \p surface, \p relation),
  /// or nullptr when the pair was not registered before the last
  /// Finalize(). A pure read: shard builds may call it concurrently.
  const RelationRow* FindRelationRow(size_t surface,
                                     RelationId relation) const {
    auto it = relation_row_index_.find(RelationKey(surface, relation));
    if (it == relation_row_index_.end() || it->second >= rows_finalized_) {
      return nullptr;
    }
    return &relation_rows_[it->second];
  }

  // --- id-based pair signals (both ids must be valid) ---------------------

  /// `Sim_emb` as a dot product of unit phrase vectors, clamped to [0, 1];
  /// 0.5 when either phrase has no known token.
  double Emb(size_t a, size_t b) const {
    if (!has_vec_[a] || !has_vec_[b]) return 0.5;
    return Dot(unit_.data() + a * dim_, unit_.data() + b * dim_, dim_);
  }
  /// `Sim_PPDB` with absence-is-neutral semantics.
  double Ppdb(size_t a, size_t b) const {
    if (ppdb_rep_[a] < 0 || ppdb_rep_[b] < 0) return 0.5;
    return ppdb_rep_[a] == ppdb_rep_[b] ? 1.0 : 0.0;
  }
  /// `Sim_AMIE` with absence-is-neutral semantics.
  double Amie(size_t a, size_t b) const;
  /// `Sim_KBP` with absence-is-neutral semantics.
  double Kbp(size_t a, size_t b) const {
    if (kbp_class_[a] == kNilId || kbp_class_[b] == kNilId) return 0.5;
    return kbp_class_[a] == kbp_class_[b] ? 1.0 : 0.0;
  }

  // --- drop-in SignalBundle-shaped interface ------------------------------
  // Unregistered phrases fall back to the (uncached) bundle.

  double Emb(std::string_view a, std::string_view b) const;
  double Ppdb(std::string_view a, std::string_view b) const;
  double Amie(std::string_view a, std::string_view b) const;
  double Kbp(std::string_view a, std::string_view b) const;

 private:
  static double Dot(const float* a, const float* b, size_t dim) {
    double dot = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      dot += static_cast<double>(a[d]) * b[d];
    }
    if (dot < 0.0) return 0.0;
    return dot > 1.0 ? 1.0 : dot;
  }
  static uint64_t RelationKey(size_t surface, RelationId relation) {
    return (static_cast<uint64_t>(surface) << 32) |
           static_cast<uint32_t>(relation);
  }
  static uint64_t PairKey(int32_t a, int32_t b) {
    uint32_t lo = static_cast<uint32_t>(a < b ? a : b);
    uint32_t hi = static_cast<uint32_t>(a < b ? b : a);
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }

  const SignalBundle* bundle_ = nullptr;
  /// Phrases covered by the last Finalize(); the next call starts here.
  size_t finalized_ = 0;

  /// Owns phrase storage; index_ keys string_views into it (stable deque
  /// addresses), so IdOf never allocates.
  std::deque<std::string> phrases_;
  std::unordered_map<std::string_view, size_t> index_;

  // Embedding arena: one unit-normalized row per phrase.
  size_t dim_ = 0;
  std::vector<float> unit_;
  std::vector<uint8_t> has_vec_;

  // PPDB representative ids (-1 = outside PPDB's coverage). The intern
  // map persists so append-only finalizes assign consistent ids.
  std::vector<int32_t> ppdb_rep_;
  std::unordered_map<std::string, int32_t> ppdb_rep_ids_;

  // AMIE: interned normalized-form id and evidence flag per phrase, plus
  // the miner's bidirectional equivalences as unordered norm-id pairs —
  // the pair query is two int compares and at most one integer hash.
  // The norm-id intern map persists across finalizes; the equivalence set
  // is re-derived from the miner's (static) rule set whenever new norm
  // ids appear.
  std::vector<int32_t> amie_norm_id_;
  std::vector<uint8_t> amie_evidence_;
  std::unordered_set<uint64_t> amie_equivalent_;
  std::unordered_map<std::string, int32_t> amie_norm_ids_;

  // KBP classification per phrase (kNilId = abstain).
  std::vector<RelationId> kbp_class_;

  // F5 relation rows: the phrase ids of each candidate relation's name
  // then aliases (the builder's max order), one row per registered
  // (surface, relation) pair, and that pair per row. Rows below
  // rows_finalized_ are computed; the rest await the next Finalize().
  std::unordered_map<RelationId, std::vector<size_t>> relation_phrases_;
  std::unordered_map<uint64_t, size_t> relation_row_index_;
  std::vector<std::pair<size_t, RelationId>> relation_row_pairs_;
  std::vector<RelationRow> relation_rows_;
  size_t rows_finalized_ = 0;
};

/// Computes a RelationRow from scratch over the relation's names
/// `name_at(0)` (the canonical name) .. `name_at(count - 1)` (its aliases),
/// maximizing in that order. The surface's `SimilarityQuery` is built once
/// per row. `SignalCache::Finalize` memoizes rows through this same
/// function, so a memoized row is bit-identical to one the graph builder
/// computes directly.
template <typename NameAt>
RelationRow ComputeRelationRow(const SignalCache& signals,
                               std::string_view surface, size_t count,
                               NameAt&& name_at) {
  SimilarityQuery query(surface);
  const std::string_view first = name_at(0);
  RelationRow row{query.Ngram(first), query.Levenshtein(first),
                  signals.Emb(surface, first), signals.Ppdb(surface, first)};
  for (size_t k = 1; k < count; ++k) {
    const std::string_view name = name_at(k);
    row.ngram = std::max(row.ngram, query.Ngram(name));
    row.ld = std::max(row.ld, query.Levenshtein(name));
    row.emb = std::max(row.emb, signals.Emb(surface, name));
    row.ppdb = std::max(row.ppdb, signals.Ppdb(surface, name));
  }
  return row;
}

}  // namespace jocl

#endif  // JOCL_CORE_SIGNAL_CACHE_H_

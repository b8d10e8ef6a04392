#include "core/signal_cache.h"

#include <cmath>

#include "util/logging.h"

namespace jocl {

size_t SignalCache::Add(std::string_view phrase) {
  auto it = index_.find(phrase);
  if (it != index_.end()) return it->second;
  phrases_.emplace_back(phrase);
  size_t id = phrases_.size() - 1;
  index_.emplace(std::string_view(phrases_.back()), id);
  return id;
}

void SignalCache::Finalize(const SignalBundle& signals) {
  bundle_ = &signals;
  const size_t n = phrases_.size();
  const size_t from = finalized_;

  // Embeddings: one unit-normalized phrase vector per row.
  dim_ = signals.embeddings.dim();
  unit_.resize(n * dim_, 0.0f);
  has_vec_.resize(n, 0);
  for (size_t i = from; i < n; ++i) {
    std::vector<float> v = signals.embeddings.PhraseVector(phrases_[i]);
    double norm = 0.0;
    for (float x : v) norm += static_cast<double>(x) * x;
    if (norm <= 0.0) continue;  // no known token: neutral fallback
    norm = std::sqrt(norm);
    float* row = unit_.data() + i * dim_;
    for (size_t d = 0; d < dim_; ++d) {
      row[d] = static_cast<float>(v[d] / norm);
    }
    has_vec_[i] = 1;
  }

  // PPDB representatives, interned (the persistent map keeps ids stable
  // across appends; only equality of ids is ever observed).
  ppdb_rep_.resize(n, -1);
  if (signals.ppdb != nullptr) {
    for (size_t i = from; i < n; ++i) {
      auto rep = signals.ppdb->Representative(phrases_[i]);
      if (!rep.has_value()) continue;
      auto [it, inserted] =
          ppdb_rep_ids_.emplace(std::move(*rep),
                                static_cast<int32_t>(ppdb_rep_ids_.size()));
      ppdb_rep_[i] = it->second;
    }
  }

  // AMIE: interned normalized forms, evidence flags, and the miner's
  // bidirectional equivalences mapped onto norm-id pairs so the pair
  // query never touches a string again.
  amie_norm_id_.resize(n, -1);
  amie_evidence_.resize(n, 0);
  const size_t norm_ids_before = amie_norm_ids_.size();
  for (size_t i = from; i < n; ++i) {
    std::string norm = signals.amie.NormalizedForm(phrases_[i]);
    bool evidence = signals.amie.HasEvidenceNormalized(norm);
    auto [it, inserted] =
        amie_norm_ids_.emplace(std::move(norm),
                               static_cast<int32_t>(amie_norm_ids_.size()));
    amie_norm_id_[i] = it->second;
    amie_evidence_[i] = evidence ? 1 : 0;
  }
  // rules() holds every accepted unidirectional rule; a bidirectional
  // presence is exactly the miner's equivalence relation. New norm ids
  // can complete rules whose other side was already interned, so the
  // (static) rule set is re-scanned whenever the id space grew.
  if (amie_norm_ids_.size() > norm_ids_before || from == 0) {
    amie_equivalent_.clear();
    std::unordered_set<uint64_t> directed;
    for (const AmieRule& rule : signals.amie.rules()) {
      auto a = amie_norm_ids_.find(rule.antecedent);
      auto b = amie_norm_ids_.find(rule.consequent);
      if (a == amie_norm_ids_.end() || b == amie_norm_ids_.end()) continue;
      uint64_t forward = (static_cast<uint64_t>(
                              static_cast<uint32_t>(a->second))
                          << 32) |
                         static_cast<uint32_t>(b->second);
      uint64_t backward = (static_cast<uint64_t>(
                               static_cast<uint32_t>(b->second))
                           << 32) |
                          static_cast<uint32_t>(a->second);
      directed.insert(forward);
      if (directed.count(backward) > 0) {
        amie_equivalent_.insert(PairKey(a->second, b->second));
      }
    }
  }

  // KBP classifications.
  kbp_class_.resize(n, kNilId);
  for (size_t i = from; i < n; ++i) {
    kbp_class_[i] = signals.kbp.Classify(phrases_[i]);
  }

  // F5 relation rows for the pairs registered since the last call. Every
  // phrase they touch is registered, so the string queries resolve to the
  // memos above — the answers the graph builder's direct path gets.
  for (size_t r = rows_finalized_; r < relation_rows_.size(); ++r) {
    const auto& [surface, relation] = relation_row_pairs_[r];
    const std::vector<size_t>& names = relation_phrases_.at(relation);
    relation_rows_[r] = ComputeRelationRow(
        *this, phrases_[surface], names.size(),
        [&](size_t k) -> std::string_view { return phrases_[names[k]]; });
  }
  rows_finalized_ = relation_rows_.size();

  finalized_ = n;
  JOCL_LOG(kDebug) << "signal cache: " << n << " phrases (" << (n - from)
                   << " new), emb dim " << dim_;
}

double SignalCache::Amie(size_t a, size_t b) const {
  // Mirrors SignalBundle::Amie: rule-or-same-norm-form wins, then the
  // absence-is-neutral gate on mining evidence.
  if (amie_norm_id_[a] == amie_norm_id_[b]) return 1.0;
  if (amie_equivalent_.count(PairKey(amie_norm_id_[a], amie_norm_id_[b])) >
      0) {
    return 1.0;
  }
  if (!amie_evidence_[a] || !amie_evidence_[b]) return 0.5;
  return 0.0;
}

double SignalCache::Emb(std::string_view a, std::string_view b) const {
  size_t ia = IdOf(a);
  size_t ib = IdOf(b);
  if (ia == kUnknown || ib == kUnknown) return bundle_->Emb(a, b);
  return Emb(ia, ib);
}

double SignalCache::Ppdb(std::string_view a, std::string_view b) const {
  size_t ia = IdOf(a);
  size_t ib = IdOf(b);
  if (ia == kUnknown || ib == kUnknown) return bundle_->Ppdb(a, b);
  return Ppdb(ia, ib);
}

double SignalCache::Amie(std::string_view a, std::string_view b) const {
  size_t ia = IdOf(a);
  size_t ib = IdOf(b);
  if (ia == kUnknown || ib == kUnknown) return bundle_->Amie(a, b);
  return Amie(ia, ib);
}

double SignalCache::Kbp(std::string_view a, std::string_view b) const {
  size_t ia = IdOf(a);
  size_t ib = IdOf(b);
  if (ia == kUnknown || ib == kUnknown) return bundle_->Kbp(a, b);
  return Kbp(ia, ib);
}

void SignalCache::RegisterProblem(const JoclProblem& problem,
                                  const CuratedKb& ckb) {
  for (const auto* surfaces :
       {&problem.subject_surfaces, &problem.predicate_surfaces,
        &problem.object_surfaces}) {
    for (const auto& surface : *surfaces) Add(surface);
  }
  // Candidate entity names (F4/F6 query Emb/Ppdb against them).
  for (const auto* candidates :
       {&problem.subject_candidates, &problem.object_candidates}) {
    for (const auto& list : *candidates) {
      for (const auto& candidate : list) {
        Add(ckb.entity(candidate.id).name);
      }
    }
  }
  // (predicate surface, candidate relation) pairs: F5 rows.
  for (size_t p = 0; p < problem.predicate_candidates.size(); ++p) {
    for (const auto& candidate : problem.predicate_candidates[p]) {
      AddRelationCandidate(problem.predicate_surfaces[p], candidate.id, ckb);
    }
  }
}

void SignalCache::AddRelationCandidate(std::string_view surface,
                                       RelationId relation,
                                       const CuratedKb& ckb) {
  const size_t surface_id = Add(surface);
  auto names = relation_phrases_.find(relation);
  if (names == relation_phrases_.end()) {
    std::vector<size_t> ids = {Add(ckb.relation(relation).name)};
    for (const auto& alias : ckb.RelationAliases(relation)) {
      ids.push_back(Add(alias));
    }
    relation_phrases_.emplace(relation, std::move(ids));
  }
  auto [row, inserted] = relation_row_index_.emplace(
      RelationKey(surface_id, relation), relation_rows_.size());
  if (!inserted) return;
  relation_row_pairs_.emplace_back(surface_id, relation);
  relation_rows_.emplace_back();
}

SignalCache SignalCache::ForProblem(const JoclProblem& problem,
                                    const SignalBundle& signals,
                                    const CuratedKb& ckb) {
  SignalCache cache;
  cache.RegisterProblem(problem, ckb);
  cache.Finalize(signals);
  return cache;
}

SignalCache SignalCache::ForPhrases(const std::vector<std::string>& phrases,
                                    const SignalBundle& signals) {
  SignalCache cache;
  for (const auto& phrase : phrases) cache.Add(phrase);
  cache.Finalize(signals);
  return cache;
}

}  // namespace jocl

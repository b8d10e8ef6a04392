#include "kb/curated_kb.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace jocl {
namespace {

// Fuzzy-match scores are scaled into (0, kFuzzyCeiling) so that any exact
// anchor match (score in (0, 1]) can outrank them at equal footing but a
// confident fuzzy match still beats a rare anchor reading.
constexpr double kFuzzyCeiling = 0.6;

}  // namespace

EntityId CuratedKb::AddEntity(std::string_view name) {
  std::string canonical = ToLower(Trim(name));
  auto it = entity_by_name_.find(canonical);
  if (it != entity_by_name_.end()) return it->second;
  EntityId id = static_cast<EntityId>(entities_.size());
  entities_.push_back(Entity{id, canonical});
  entity_profiles_.Add(canonical);
  entity_by_name_.emplace(canonical, id);
  for (const auto& token : ContentTokens(canonical)) {
    token_index_[token].push_back(id);
  }
  return id;
}

RelationId CuratedKb::AddRelation(std::string_view name) {
  std::string canonical = ToLower(Trim(name));
  auto it = relation_by_name_.find(canonical);
  if (it != relation_by_name_.end()) return it->second;
  RelationId id = static_cast<RelationId>(relations_.size());
  relations_.push_back(Relation{id, canonical});
  relation_aliases_.emplace_back();
  relation_profile_slots_.push_back({relation_profiles_.Add(canonical)});
  relation_by_name_.emplace(canonical, id);
  return id;
}

Status CuratedKb::AddRelationAlias(RelationId id, std::string_view alias) {
  if (id < 0 || static_cast<size_t>(id) >= relations_.size()) {
    return Status::InvalidArgument("relation id out of range");
  }
  const size_t r = static_cast<size_t>(id);
  relation_aliases_[r].push_back(ToLower(Trim(alias)));
  relation_profile_slots_[r].push_back(
      relation_profiles_.Add(relation_aliases_[r].back()));
  return Status::OK();
}

Status CuratedKb::AddFact(EntityId subject, RelationId relation,
                          EntityId object) {
  if (subject < 0 || static_cast<size_t>(subject) >= entities_.size() ||
      object < 0 || static_cast<size_t>(object) >= entities_.size()) {
    return Status::InvalidArgument("fact entity id out of range");
  }
  if (relation < 0 || static_cast<size_t>(relation) >= relations_.size()) {
    return Status::InvalidArgument("fact relation id out of range");
  }
  FactKey key{subject, relation, object};
  if (fact_set_.count(key) > 0) return Status::OK();  // idempotent
  fact_set_.insert(key);
  facts_by_entity_[subject].push_back(facts_.size());
  if (object != subject) facts_by_entity_[object].push_back(facts_.size());
  facts_.push_back(Fact{subject, relation, object});
  return Status::OK();
}

Status CuratedKb::AddAnchor(std::string_view surface, EntityId entity,
                            int64_t count) {
  if (entity < 0 || static_cast<size_t>(entity) >= entities_.size()) {
    return Status::InvalidArgument("anchor entity id out of range");
  }
  if (count <= 0) return Status::InvalidArgument("anchor count must be > 0");
  std::string key = ToLower(Trim(surface));
  auto total = anchor_totals_.find(key);
  if (total != anchor_totals_.end() &&
      count > std::numeric_limits<int64_t>::max() - total->second) {
    return Status::InvalidArgument("anchor count overflows int64");
  }
  anchors_[key][entity] += count;
  anchor_totals_[key] += count;
  return Status::OK();
}

const Entity& CuratedKb::entity(EntityId id) const {
  assert(id >= 0 && static_cast<size_t>(id) < entities_.size());
  return entities_[static_cast<size_t>(id)];
}

const Relation& CuratedKb::relation(RelationId id) const {
  assert(id >= 0 && static_cast<size_t>(id) < relations_.size());
  return relations_[static_cast<size_t>(id)];
}

EntityId CuratedKb::FindEntityByName(std::string_view name) const {
  auto it = entity_by_name_.find(ToLower(Trim(name)));
  return it == entity_by_name_.end() ? kNilId : it->second;
}

RelationId CuratedKb::FindRelationByName(std::string_view name) const {
  auto it = relation_by_name_.find(ToLower(Trim(name)));
  return it == relation_by_name_.end() ? kNilId : it->second;
}

const std::vector<std::string>& CuratedKb::RelationAliases(
    RelationId id) const {
  static const std::vector<std::string>* const kEmpty =
      new std::vector<std::string>();
  if (id < 0 || static_cast<size_t>(id) >= relation_aliases_.size()) {
    return *kEmpty;
  }
  return relation_aliases_[static_cast<size_t>(id)];
}

bool CuratedKb::HasFact(EntityId subject, RelationId relation,
                        EntityId object) const {
  return fact_set_.count(FactKey{subject, relation, object}) > 0;
}

std::vector<Fact> CuratedKb::FactsInvolving(EntityId entity) const {
  std::vector<Fact> out;
  auto it = facts_by_entity_.find(entity);
  if (it == facts_by_entity_.end()) return out;
  out.reserve(it->second.size());
  for (size_t index : it->second) out.push_back(facts_[index]);
  return out;
}

int64_t CuratedKb::AnchorCount(std::string_view surface) const {
  auto it = anchor_totals_.find(ToLower(Trim(surface)));
  return it == anchor_totals_.end() ? 0 : it->second;
}

int64_t CuratedKb::AnchorCount(std::string_view surface,
                               EntityId entity) const {
  auto it = anchors_.find(ToLower(Trim(surface)));
  if (it == anchors_.end()) return 0;
  auto jt = it->second.find(entity);
  return jt == it->second.end() ? 0 : jt->second;
}

double CuratedKb::Popularity(std::string_view surface,
                             EntityId entity) const {
  int64_t total = AnchorCount(surface);
  if (total <= 0) return 0.0;
  return static_cast<double>(AnchorCount(surface, entity)) /
         static_cast<double>(total);
}

std::vector<std::tuple<std::string, EntityId, int64_t>>
CuratedKb::AnchorRows() const {
  std::vector<std::tuple<std::string, EntityId, int64_t>> rows;
  for (const auto& [surface, by_entity] : anchors_) {
    for (const auto& [entity, count] : by_entity) {
      rows.emplace_back(surface, entity, count);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<EntityCandidate> CuratedKb::ExactAnchorCandidates(
    std::string_view phrase, size_t max_candidates) const {
  std::string key = ToLower(Trim(phrase));
  std::vector<EntityCandidate> candidates;
  auto it = anchors_.find(key);
  if (it == anchors_.end()) return candidates;
  double total = static_cast<double>(anchor_totals_.at(key));
  candidates.reserve(it->second.size());
  for (const auto& [entity_id, count] : it->second) {
    candidates.push_back(
        EntityCandidate{entity_id, static_cast<double>(count) / total});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const EntityCandidate& a, const EntityCandidate& b) {
              if (a.popularity != b.popularity) {
                return a.popularity > b.popularity;
              }
              return a.id < b.id;
            });
  if (candidates.size() > max_candidates) candidates.resize(max_candidates);
  return candidates;
}

std::vector<EntityCandidate> CuratedKb::LabelCandidates(
    std::string_view phrase, size_t max_candidates) const {
  std::string key = ToLower(Trim(phrase));
  std::unordered_set<EntityId> pool;
  for (const auto& token : ContentTokens(key)) {
    auto it = token_index_.find(token);
    if (it == token_index_.end()) continue;
    pool.insert(it->second.begin(), it->second.end());
  }
  const SimilarityQuery query(key);
  std::vector<EntityCandidate> candidates;
  candidates.reserve(pool.size());
  for (EntityId id : pool) {
    double sim = query.Ngram(entity_profiles_[static_cast<size_t>(id)]);
    if (sim > 0.0) candidates.push_back(EntityCandidate{id, sim});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const EntityCandidate& a, const EntityCandidate& b) {
              if (a.popularity != b.popularity) {
                return a.popularity > b.popularity;
              }
              return a.id < b.id;
            });
  if (candidates.size() > max_candidates) candidates.resize(max_candidates);
  return candidates;
}

std::vector<EntityCandidate> CuratedKb::EntityCandidates(
    std::string_view phrase, size_t max_candidates) const {
  std::string key = ToLower(Trim(phrase));
  std::vector<EntityCandidate> candidates;
  std::unordered_set<EntityId> seen;

  auto it = anchors_.find(key);
  if (it != anchors_.end()) {
    double total = static_cast<double>(anchor_totals_.at(key));
    for (const auto& [entity_id, count] : it->second) {
      candidates.push_back(
          EntityCandidate{entity_id, static_cast<double>(count) / total});
      seen.insert(entity_id);
    }
  }

  // Fuzzy fallback: entities sharing a content token with the phrase,
  // scored by trigram similarity of the canonical name.
  if (candidates.size() < max_candidates) {
    std::unordered_set<EntityId> pool;
    for (const auto& token : ContentTokens(key)) {
      auto tok_it = token_index_.find(token);
      if (tok_it == token_index_.end()) continue;
      for (EntityId id : tok_it->second) {
        if (seen.count(id) == 0) pool.insert(id);
      }
    }
    const SimilarityQuery query(key);
    std::vector<EntityCandidate> fuzzy;
    fuzzy.reserve(pool.size());
    for (EntityId id : pool) {
      double sim = query.Ngram(entity_profiles_[static_cast<size_t>(id)]);
      if (sim > 0.0) fuzzy.push_back(EntityCandidate{id, sim * kFuzzyCeiling});
    }
    std::sort(fuzzy.begin(), fuzzy.end(),
              [](const EntityCandidate& a, const EntityCandidate& b) {
                if (a.popularity != b.popularity) {
                  return a.popularity > b.popularity;
                }
                return a.id < b.id;
              });
    for (const auto& c : fuzzy) {
      if (candidates.size() >= max_candidates * 2) break;
      candidates.push_back(c);
    }
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const EntityCandidate& a, const EntityCandidate& b) {
              if (a.popularity != b.popularity) {
                return a.popularity > b.popularity;
              }
              return a.id < b.id;
            });
  if (candidates.size() > max_candidates) candidates.resize(max_candidates);
  return candidates;
}

std::vector<RelationCandidate> CuratedKb::RelationCandidates(
    std::string_view phrase, size_t max_candidates) const {
  std::string key = ToLower(Trim(phrase));
  SimilarityQuery query(key);
  std::vector<RelationCandidate> candidates;
  candidates.reserve(relations_.size());
  for (const auto& rel : relations_) {
    const size_t r = static_cast<size_t>(rel.id);
    const std::vector<size_t>& slots = relation_profile_slots_[r];
    const std::vector<std::string>& aliases = relation_aliases_[r];
    double best = std::max(query.Ngram(relation_profiles_[slots[0]]),
                           query.Levenshtein(rel.name));
    for (size_t k = 0; k < aliases.size(); ++k) {
      best = std::max({best, query.Ngram(relation_profiles_[slots[k + 1]]),
                       query.Levenshtein(aliases[k])});
    }
    if (best > 0.0) candidates.push_back(RelationCandidate{rel.id, best});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const RelationCandidate& a, const RelationCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  if (candidates.size() > max_candidates) candidates.resize(max_candidates);
  return candidates;
}

}  // namespace jocl

#ifndef JOCL_KB_CURATED_KB_H_
#define JOCL_KB_CURATED_KB_H_

#include <string>
#include <cstddef>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kb/types.h"
#include "text/similarity.h"
#include "util/result.h"

namespace jocl {

/// \brief A candidate entity (relation) for a phrase with its prior score.
struct EntityCandidate {
  EntityId id = -1;
  /// `count(s, e) / count(s)` anchor popularity when produced by the exact
  /// alias index; a fuzzy-match similarity in [0, 1] otherwise.
  double popularity = 0.0;
};

/// \brief A candidate relation with its surface-similarity prior.
struct RelationCandidate {
  RelationId id = -1;
  double score = 0.0;
};

/// \brief In-memory curated knowledge base (the paper's CKB).
///
/// Holds canonical entities, relations, facts, and the alias statistics the
/// linking signals need: an anchor table mirroring Wikipedia anchor links
/// (surface form -> entity with counts, ambiguity included) powering
/// `f_pop`, a token inverted index for fuzzy candidate generation, and a
/// fact-inclusion set powering the `U4` factor. Every entity name, relation
/// name and relation alias gets its trigram profile when it is added, so
/// candidate generation builds one `SimilarityQuery` per phrase and scores
/// each name against a stored profile.
///
/// Writes (AddEntity/AddRelation/AddFact/AddAnchor) are expected to be done
/// before reads; the class is not thread-safe for mixed read/write.
class CuratedKb {
 public:
  CuratedKb() = default;

  // --- construction ------------------------------------------------------

  /// Adds an entity with the given canonical name; returns its id.
  EntityId AddEntity(std::string_view name);

  /// Adds a relation with the given canonical name; returns its id.
  RelationId AddRelation(std::string_view name);

  /// Adds an alias surface form for a relation (used by candidate
  /// generation; e.g. "founded" for "organizations_founded").
  Status AddRelationAlias(RelationId id, std::string_view alias);

  /// Records a fact; ids must exist.
  Status AddFact(EntityId subject, RelationId relation, EntityId object);

  /// Records \p count anchor-link occurrences of \p surface pointing at
  /// \p entity (the Wikipedia-anchor statistics of §3.2.3). Rejects a
  /// non-positive count and one that would overflow the surface's total.
  Status AddAnchor(std::string_view surface, EntityId entity, int64_t count);

  // --- lookup -------------------------------------------------------------

  size_t entity_count() const { return entities_.size(); }
  size_t relation_count() const { return relations_.size(); }
  size_t fact_count() const { return facts_.size(); }

  /// Entity by id; requires a valid id.
  const Entity& entity(EntityId id) const;

  /// Relation by id; requires a valid id.
  const Relation& relation(RelationId id) const;

  const std::vector<Fact>& facts() const { return facts_; }

  /// Entity id by exact canonical name, or kNilId.
  EntityId FindEntityByName(std::string_view name) const;

  /// Relation id by exact canonical name, or kNilId.
  RelationId FindRelationByName(std::string_view name) const;

  /// Alias surface forms registered for a relation (possibly empty).
  const std::vector<std::string>& RelationAliases(RelationId id) const;

  /// True iff `<subject, relation, object>` is a known fact (U4 signal).
  bool HasFact(EntityId subject, RelationId relation, EntityId object) const;

  /// Facts with the given subject or object entity.
  std::vector<Fact> FactsInvolving(EntityId entity) const;

  // --- anchor statistics (f_pop) ------------------------------------------

  /// Total anchor occurrences of the surface form, `count(s)`.
  int64_t AnchorCount(std::string_view surface) const;

  /// Anchor occurrences of the surface pointing at the entity,
  /// `count(s, e)`.
  int64_t AnchorCount(std::string_view surface, EntityId entity) const;

  /// The popularity prior `count(s, e) / count(s)`; 0 when unseen.
  double Popularity(std::string_view surface, EntityId entity) const;

  /// Snapshot of the full anchor table as (surface, entity, count) rows,
  /// deterministically ordered. For serialization and diagnostics.
  std::vector<std::tuple<std::string, EntityId, int64_t>> AnchorRows() const;

  // --- candidate generation ------------------------------------------------

  /// Candidate entities for a noun phrase: exact anchor matches ranked by
  /// popularity, topped up with fuzzy matches from the token index (scored
  /// by character-trigram similarity, scaled below any exact match).
  /// At most \p max_candidates, sorted by score descending.
  std::vector<EntityCandidate> EntityCandidates(std::string_view phrase,
                                                size_t max_candidates) const;

  /// Candidates from the exact anchor index only (no fuzzy fallback) —
  /// what a dictionary-based linker sees. Sorted by popularity.
  std::vector<EntityCandidate> ExactAnchorCandidates(
      std::string_view phrase, size_t max_candidates) const;

  /// Candidates by label similarity only (token index + trigram score over
  /// canonical names; no anchor statistics) — what a label-search linker
  /// like EARL sees. `popularity` carries the similarity score.
  std::vector<EntityCandidate> LabelCandidates(std::string_view phrase,
                                               size_t max_candidates) const;

  /// Candidate relations for a relation phrase, scored by the best of
  /// trigram and normalized-Levenshtein similarity over the canonical name
  /// and all aliases. At most \p max_candidates, sorted descending.
  std::vector<RelationCandidate> RelationCandidates(
      std::string_view phrase, size_t max_candidates) const;

 private:
  struct FactKey {
    EntityId s;
    RelationId r;
    EntityId o;
    bool operator==(const FactKey& other) const {
      return s == other.s && r == other.r && o == other.o;
    }
  };
  struct FactKeyHash {
    size_t operator()(const FactKey& k) const {
      size_t h = std::hash<int64_t>()(k.s);
      h = h * 1315423911u ^ std::hash<int64_t>()(k.r);
      h = h * 1315423911u ^ std::hash<int64_t>()(k.o);
      return h;
    }
  };

  std::vector<Entity> entities_;
  std::vector<Relation> relations_;
  std::vector<Fact> facts_;
  std::unordered_set<FactKey, FactKeyHash> fact_set_;
  std::unordered_map<std::string, EntityId> entity_by_name_;
  std::unordered_map<std::string, RelationId> relation_by_name_;
  // Indexed by relation id.
  std::vector<std::vector<std::string>> relation_aliases_;
  // Trigram profiles: entity names by entity id; relation names and
  // aliases by the slots in relation_profile_slots_[id] (the canonical
  // name first, then each alias in order).
  NgramProfilePool entity_profiles_;
  NgramProfilePool relation_profiles_;
  std::vector<std::vector<size_t>> relation_profile_slots_;
  // surface (lower-cased) -> entity -> count
  std::unordered_map<std::string, std::unordered_map<EntityId, int64_t>>
      anchors_;
  std::unordered_map<std::string, int64_t> anchor_totals_;
  // content token -> entity ids whose canonical name contains the token
  std::unordered_map<std::string, std::vector<EntityId>> token_index_;
  // entity -> facts index for FactsInvolving
  std::unordered_map<EntityId, std::vector<size_t>> facts_by_entity_;
};

}  // namespace jocl

#endif  // JOCL_KB_CURATED_KB_H_

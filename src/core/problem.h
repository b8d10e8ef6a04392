#ifndef JOCL_CORE_PROBLEM_H_
#define JOCL_CORE_PROBLEM_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/signals.h"
#include "data/dataset.h"
#include "kb/curated_kb.h"

namespace jocl {

/// \brief A candidate NP (RP) pair that survived blocking: two distinct
/// surfaces of one role plus their IDF token-overlap similarity.
struct SurfacePair {
  size_t a = 0;  ///< surface index (role-local), a < b
  size_t b = 0;
  double idf = 0.0;
  /// True when the pair exists only because the two surfaces share a top
  /// candidate entity. Consistency factors must not attach to such pairs:
  /// rewarding them for agreeing on the shared candidate would be
  /// circular (the agreement is why they were blocked).
  bool candidate_blocked = false;
};

/// \brief Options for problem construction.
struct ProblemOptions {
  /// Pair variables are generated for pairs whose IDF token-overlap
  /// similarity reaches this (paper §4.1: threshold 0.5).
  double pair_threshold = 0.5;
  /// Additionally generate pair variables for surface pairs that share a
  /// top candidate entity/relation or a PPDB cluster, even below the IDF
  /// threshold. This keeps the paper's blocking semantics (variables exist
  /// where co-reference is plausible) while letting the joint model act on
  /// token-disjoint aliases (acronyms, nicknames, synonym verbs) — without
  /// it, no consistency factor could ever merge them.
  bool side_info_blocking = true;
  /// How many top candidates participate in candidate-overlap blocking.
  size_t blocking_candidates = 2;
  /// Candidate entities/relations per mention (linking variable states are
  /// this many plus NIL).
  size_t max_candidates = 5;
  /// Blocking tokens shared by more than this many surfaces are ignored
  /// (standard blocking practice; such pairs cannot reach the threshold
  /// through one frequent token anyway).
  size_t max_block_size = 100;
  /// Hard cap on pair variables per role (kept by descending similarity,
  /// deterministic tie-break) to bound graph size on huge inputs.
  size_t max_pairs_per_role = 60000;
};

/// \brief Role-separated, surface-deduplicated view of (a subset of) an
/// OKB, ready for factor-graph construction.
///
/// The paper defines pair variables per triple pair; mentions sharing a
/// surface form would duplicate identical variables (same features, same
/// neighbors), so the problem space collapses each role's mentions onto
/// distinct surfaces. Linking variables stay per-triple (per mention).
struct JoclProblem {
  /// The triple indices (into the owning data set) this problem covers, in
  /// ascending order; all per-triple vectors below are aligned with it.
  std::vector<size_t> triples;

  // Distinct surfaces per role, first-appearance order.
  std::vector<std::string> subject_surfaces;
  std::vector<std::string> predicate_surfaces;
  std::vector<std::string> object_surfaces;

  // Per-triple surface indices (into the vectors above).
  std::vector<size_t> subject_of;
  std::vector<size_t> predicate_of;
  std::vector<size_t> object_of;

  // Representative (first) local triple index per surface.
  std::vector<size_t> subject_rep;
  std::vector<size_t> predicate_rep;
  std::vector<size_t> object_rep;

  // Blocked candidate pairs per role.
  std::vector<SurfacePair> subject_pairs;
  std::vector<SurfacePair> predicate_pairs;
  std::vector<SurfacePair> object_pairs;

  // Linking candidates per surface (shared across its mentions).
  std::vector<std::vector<EntityCandidate>> subject_candidates;
  std::vector<std::vector<RelationCandidate>> predicate_candidates;
  std::vector<std::vector<EntityCandidate>> object_candidates;

  /// Total NP mentions (2 per covered triple).
  size_t np_mention_count() const { return triples.size() * 2; }
  /// Total RP mentions (1 per covered triple).
  size_t rp_mention_count() const { return triples.size(); }
};

/// \brief Builds the problem for the given triple subset (ascending order
/// not required; it is sorted and deduplicated internally). Every id must
/// be < `dataset.okb.size()` (`JoclRuntime::Infer` and
/// `ShardedLearner::Learn` return InvalidArgument otherwise). Runs one
/// `ProblemBuilder` batch (core/problem_builder.h), so it emits exactly
/// what a session emits for the same active set.
JoclProblem BuildProblem(const Dataset& dataset, const SignalBundle& signals,
                         const std::vector<size_t>& triple_subset,
                         const ProblemOptions& options = {});

}  // namespace jocl

#endif  // JOCL_CORE_PROBLEM_H_

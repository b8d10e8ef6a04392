#ifndef JOCL_CORE_SHARD_H_
#define JOCL_CORE_SHARD_H_

#include <cstddef>
#include <vector>

#include "core/problem.h"

namespace jocl {

/// \brief One independent sub-problem of a partitioned `JoclProblem`,
/// plus the local→global index maps the runtime needs to scatter shard
/// results back into the global belief arrays.
///
/// All index maps are strictly increasing, so shard-local iteration order
/// equals the global relative order — factor construction inside a shard
/// is a subsequence of the monolithic construction.
struct ProblemShard {
  /// The re-indexed sub-problem (its `triples` hold global dataset triple
  /// ids, like any JoclProblem). One deviation from BuildProblem's
  /// convention: local surfaces are ordered by ascending *global* surface
  /// id (not shard-local first appearance), which keeps every local pair
  /// normalized (a < b) and shard-local pair order equal to the global
  /// relative order.
  JoclProblem problem;

  /// Local triple index -> index into the *global* problem's per-triple
  /// vectors (subject_of, es beliefs, ...).
  std::vector<size_t> triple_map;

  /// Local surface index -> global surface index, per role.
  std::vector<size_t> subject_surface_map;
  std::vector<size_t> predicate_surface_map;
  std::vector<size_t> object_surface_map;

  /// Local pair index -> global pair index, per role.
  std::vector<size_t> subject_pair_map;
  std::vector<size_t> predicate_pair_map;
  std::vector<size_t> object_pair_map;
};

/// \brief Deterministic greedy packing of weighted items into bins:
/// heaviest item first onto the currently lightest bin (ties: lower item
/// id / lower bin id). Returns each item's bin. \p bins = 0 or >= the
/// item count yields the identity (one bin per item). Shared by
/// `PartitionProblem`'s component grouping and the sharded learner's
/// scheduling bins, so the two can never drift apart.
std::vector<size_t> PackWeightedItems(const std::vector<size_t>& weights,
                                      size_t bins);

/// \brief A deterministic partition of a problem into independent shards.
struct ShardPlan {
  std::vector<ProblemShard> shards;
  /// Independent sub-problems found before grouping (a shard holds >= 1).
  size_t component_count = 0;
};

/// \brief Partitions a problem into independent shards via union-find
/// over its triples: a pair variable connects the *representative*
/// (first-mention) triples of its two surfaces. That is exactly the
/// factor graph's connectivity: U4 ties a triple's own es/rp/eo linking
/// variables together, consistency factors attach a pair variable to the
/// linking variables of the pair's representative mentions, and
/// transitive triangles only span pairs that share a surface (hence a
/// representative). Non-representative mentions of a surface have no
/// factor to any other triple, so they shard independently — blocking
/// yields many small independent sub-problems, and the partition
/// recovers all of them. Every factor the graph builder would emit is
/// internal to exactly one shard, which is what makes per-shard
/// inference exact.
///
/// \p max_shards caps the shard count: 0 (or >= component count) keeps
/// one shard per connected component; otherwise components are packed
/// into \p max_shards bins by descending triple count onto the lightest
/// bin (deterministic). `max_shards = 1` reproduces the monolithic
/// problem as a single shard.
///
/// The partition only regroups work — per-shard graphs are connected
/// components of the monolithic factor graph, so inference results are
/// identical for every max_shards setting.
ShardPlan PartitionProblem(const JoclProblem& problem, size_t max_shards);

/// \brief The connectivity half of `PartitionProblem`: labels every
/// triple of \p problem with its connected component (ids in
/// first-appearance order over `problem.triples`) and returns the
/// component count. \p comp_weight receives the triple count per
/// component. The labeling is exactly the one PartitionProblem shards by,
/// and the one production labeling: the runtime, the sharded learner and
/// every session batch call it on the problem they infer over.
size_t ComputeProblemComponents(const JoclProblem& problem,
                                std::vector<size_t>* comp_of_triple,
                                std::vector<size_t>* comp_weight);

/// \brief The materialization half of `PartitionProblem`: turns the
/// component labels of `ComputeProblemComponents` into \p plan.
///
/// Only the index maps are filled — `triple_map`, `problem.triples`, the
/// per-role `*_surface_map` / `*_pair_map` — which is all that
/// `ScatterShardBeliefs` and `ShardMatchesCached` read; the local problem
/// bodies of the (few) shards that actually need them are completed on
/// demand with `MaterializeShardProblem`. Skipping the per-shard string
/// copies for clean shards is what makes the steady-state partition stage
/// O(active) integer work instead of a full problem copy.
///
/// \p plan may hold any previous plan: every field of every recycled
/// shard is cleared before it is refilled, so the result equals a fresh
/// plan and only vector capacity carries over. The session keeps one plan
/// for its lifetime this way.
void MaterializeShardPlan(const JoclProblem& problem,
                          const std::vector<size_t>& comp_of_triple,
                          const std::vector<size_t>& comp_weight,
                          size_t max_shards, ShardPlan* plan);

/// \brief Completes the local problem body of one shard filled by
/// `MaterializeShardPlan` (surfaces, per-triple indices, representatives,
/// candidates and re-indexed pairs), byte-identical to PartitionProblem's
/// shard. Call it exactly once per shard.
void MaterializeShardProblem(const JoclProblem& problem, ProblemShard* shard);

/// \brief Structural equality of a cached local problem against the
/// projection \p shard would materialize from \p problem — the session's
/// belief-reuse guard, evaluated without paying the materialization.
/// Equivalent to `MaterializeShardProblem` followed by a field-by-field
/// compare (triples, surface strings, indices, pairs incl. idf and the
/// candidate-blocked tag, candidate lists).
bool ShardMatchesCached(const JoclProblem& problem, const ProblemShard& shard,
                        const JoclProblem& cached);

}  // namespace jocl

#endif  // JOCL_CORE_SHARD_H_

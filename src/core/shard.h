#ifndef JOCL_CORE_SHARD_H_
#define JOCL_CORE_SHARD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
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
/// component. The labeling is exactly the one PartitionProblem shards by.
size_t ComputeProblemComponents(const JoclProblem& problem,
                                std::vector<size_t>* comp_of_triple,
                                std::vector<size_t>* comp_weight);

/// \brief The materialization half of `PartitionProblem`: turns component
/// labels (from `ComputeProblemComponents` or an `IncrementalPartitioner`,
/// which produce identical labels) into \p plan.
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

/// \brief One batch's front-end changes in *stable* identifiers — dataset
/// triple ids and the problem builder's persistent per-role surface ids —
/// the currency between the incremental problem builder and the
/// incremental partitioner. Roles are indexed 0 = subject, 1 = predicate,
/// 2 = object.
struct FrontEndDelta {
  static constexpr size_t kRetired = static_cast<size_t>(-1);

  /// True when `max_pairs_per_role` truncated an admitted pair set: the
  /// emitted problem is still exact, but which pairs survive the cap
  /// depends on global similarity rank, so the pair deltas below (which
  /// always describe the *untruncated* admitted set) don't match the
  /// emitted problem and the caller must label this batch's components
  /// with scratch connectivity (`ComputeProblemComponents`).
  bool overflow = false;

  std::vector<size_t> added_triples;    ///< dataset ids, ascending
  std::vector<size_t> removed_triples;  ///< dataset ids, ascending

  /// A surface whose activation state or representative changed this
  /// batch: `rep` is the new representative mention's dataset triple id,
  /// or `kRetired` when the surface left the active set.
  struct SurfaceEvent {
    uint32_t sid = 0;
    size_t rep = 0;
  };
  std::array<std::vector<SurfaceEvent>, 3> surface_events;

  /// Admitted-pair transitions, packed as (lo_sid << 32) | hi_sid.
  struct PairEvents {
    std::vector<uint64_t> added;
    std::vector<uint64_t> removed;
  };
  std::array<PairEvents, 3> pair_events;

  bool empty() const {
    if (!added_triples.empty() || !removed_triples.empty()) return false;
    for (const auto& events : surface_events) {
      if (!events.empty()) return false;
    }
    for (const auto& events : pair_events) {
      if (!events.added.empty() || !events.removed.empty()) return false;
    }
    return true;
  }
};

/// \brief Persistent union-find over the active triple set: the session's
/// O(Δ·α) partition front-end.
///
/// Nodes are dataset triples plus one node per active (role, surface).
/// Edges mirror the factor graph's connectivity exactly as
/// `PartitionProblem` sees it: each admitted pair links its two surface
/// nodes, and each surface node links to its *representative* mention's
/// triple — so two triples share a component iff a chain of pairs
/// connects their representative surfaces, the same relation the scratch
/// union-find computes (non-representative mentions stay independent).
///
/// `Apply` extends the structure in O(batch · α) for additions; removals
/// dissolve only the components that lost a triple, surface or pair and
/// rebuild them from their surviving edges (per-component member and
/// edge lists are kept small-to-large, so a removal pays for the
/// affected components, never the world). `Components` then labels the
/// active triples identically to `ComputeProblemComponents` over the
/// equivalent scratch problem (property-tested in tests/session_test.cc).
class IncrementalPartitioner {
 public:
  /// \p dataset_triples fixes the triple node space ahead of the surface
  /// nodes (`Dataset::okb.size()`).
  explicit IncrementalPartitioner(size_t dataset_triples);

  /// Applies one batch's stable-id delta. Pair deltas always describe the
  /// untruncated admitted set, so Apply stays valid across overflow
  /// batches and self-heals when truncation stops — `delta.overflow` only
  /// means the caller must label *this* batch's components with
  /// `ComputeProblemComponents` instead of `Components`.
  void Apply(const FrontEndDelta& delta);

  /// Component labels for \p active_triples (ascending dataset ids), in
  /// first-appearance order; returns the component count and fills
  /// per-component triple counts. Mutating only through path compression.
  size_t Components(const std::vector<size_t>& active_triples,
                    std::vector<size_t>* comp_of_triple,
                    std::vector<size_t>* comp_weight);

 private:
  struct Group {
    std::vector<size_t> members;
    std::vector<std::pair<size_t, size_t>> edges;
  };

  size_t NodeOf(size_t role, uint32_t sid) const {
    return base_ + static_cast<size_t>(sid) * 3 + role;
  }
  void EnsureNode(size_t node);
  size_t Find(size_t node);
  void Activate(size_t node);
  void AddEdge(size_t u, size_t v);

  size_t base_;  ///< surface nodes start here (== dataset triple count)
  std::vector<size_t> parent_;
  std::vector<uint8_t> active_;
  /// Surface node -> its representative's triple node (kRetired = none).
  std::vector<size_t> rep_of_;
  /// Per-root member + internal-edge lists (only roots have entries).
  std::unordered_map<size_t, Group> groups_;
  /// Components' root -> component scratch; every entry is unset
  /// (SIZE_MAX) between calls.
  std::vector<size_t> comp_of_root_;
};

}  // namespace jocl

#endif  // JOCL_CORE_SHARD_H_

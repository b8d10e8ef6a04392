#ifndef JOCL_CORE_DECODE_H_
#define JOCL_CORE_DECODE_H_

#include <cstddef>
#include <tuple>
#include <vector>

#include "core/problem.h"

namespace jocl {

struct GraphBuilderOptions;
struct JoclResult;

/// \brief A weighted undirected edge of the pair graph: two node ids plus
/// the model's same-meaning belief (marginal of `x = 1`).
using PairEdge = std::tuple<size_t, size_t, double>;

/// \brief Clusters a sparse pair graph of LBP marginals with merge vetoes.
///
/// Plain transitive closure over `x = 1` edges lets a handful of
/// confident-but-wrong edges chain everything into one giant cluster.
/// Instead, candidate edges (weight >= \p threshold) are processed in
/// decreasing confidence, and a merge of two clusters is vetoed when the
/// *observed* cross edges between them average below the threshold — a
/// merge most of the model's own pairwise beliefs contradict is rejected.
/// Edges absent from the graph stay neutral, so sparse-but-consistent
/// clusters still assemble.
///
/// Duplicate edges keep their maximum weight. Returns dense cluster labels
/// in `[0, k)` for nodes `0..n-1`; the result is deterministic (ties break
/// on node ids).
///
/// One sequential pass over flat arrays: edges deduplicated by sorting
/// their packed (min, max) keys, a CSR adjacency over every observed edge
/// (the veto reads sub-threshold edges too), cluster members as intrusive
/// linked lists, and a stamped membership array for the veto. The veto
/// sums cross edges x-major in member-list order, so every
/// `sum / count < threshold` decision is bit-stable.
std::vector<size_t> ClusterPairGraph(size_t n,
                                     const std::vector<PairEdge>& edges,
                                     double threshold);

/// \brief Inference outputs in the *global problem's* indexing — the
/// contract between per-shard inference and the global decode.
///
/// Each shard's engine fills the slices of these arrays that its pair and
/// triple maps cover (shards partition both spaces, so writes are
/// disjoint); the monolithic path fills everything from one engine.
/// Canonicalization vectors are aligned with `problem.*_pairs`, linking
/// vectors with `problem.triples`; either group may be empty when the
/// corresponding factor family is ablated.
struct JoclBeliefs {
  /// Full marginal per pair variable (2 states: different/same meaning).
  std::vector<std::vector<double>> x_marg, y_marg, z_marg;
  /// Decoded state per pair variable.
  std::vector<size_t> x_state, y_state, z_state;
  /// Full marginal per linking variable (state 0 = NIL, k = candidate k-1).
  std::vector<std::vector<double>> es_marg, rp_marg, eo_marg;
  /// Decoded state per linking variable.
  std::vector<size_t> es_state, rp_state, eo_state;
};

/// \brief The full global decode: each mention keeps the argmax link of
/// its own linking variable, canonicalization clusters the pair-marginal
/// graph (with the JOCLlink group-by-entity fallback when \p builder
/// ablates canonicalization), and cluster labels are materialized per
/// mention. \p builder is the configuration of the graph the beliefs came
/// from: only its enable_canonicalization / enable_linking are read. Fills
/// np_cluster / rp_cluster / np_link / rp_link of \p result (diagnostics,
/// triples and weights are the caller's).
///
/// The paper's §3.5 group vote (mentions of a same-meaning pair move to
/// the larger link group) is not applied: it lowered test-split linking
/// accuracy on every measured seed (docs/benchmarks.md), and the joint
/// graph's consistency factors already couple clusters and links.
void DecodeJointResult(const JoclProblem& problem, const JoclBeliefs& beliefs,
                       const GraphBuilderOptions& builder, JoclResult* result);

}  // namespace jocl

#endif  // JOCL_CORE_DECODE_H_

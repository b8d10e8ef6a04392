#ifndef JOCL_CORE_DECODE_H_
#define JOCL_CORE_DECODE_H_

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/problem.h"

namespace jocl {

struct JoclResult;

/// \brief A weighted undirected edge of the pair graph: two node ids plus
/// the model's same-meaning belief (marginal of `x = 1`).
using PairEdge = std::tuple<size_t, size_t, double>;

/// \brief Clusters a sparse pair graph of LBP marginals with conflict
/// vetoes (§3.5 applied at decode time).
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

/// \brief Knobs of the global decode + §3.5 conflict resolution.
struct JointDecodeOptions {
  /// Mirror of GraphBuilderOptions::enable_canonicalization / _linking for
  /// the graph the beliefs came from.
  bool canonicalization = true;
  bool linking = true;
  /// Same-meaning belief needed for a cluster merge edge.
  double cluster_threshold = 0.5;
  /// §3.5 only fires for pairs whose same-meaning marginal reaches this.
  double conflict_confidence = 0.75;
  /// Mentions whose own link confidence reaches this are never overturned
  /// by conflict resolution (the model is surer than the group vote).
  double overturn_guard = 0.85;
};

/// \brief §3.5 conflict resolution, in isolation: for every decoded
/// same-meaning pair (confident enough per \p options), mentions linked to
/// the smaller link group move to the larger one — unless their own link
/// confidence passes the overturn guard. NIL links and agreeing links are
/// left alone. Mutates \p np_link / \p rp_link in place.
///
/// Group sizes are those of the initial decode (counted at the first
/// conflict), and qualifying pairs are scanned in pair order,
/// role by role. A pair reads and writes only the mentions of its own two
/// surfaces, so pairs that share no surface commute.
void ResolveLinkConflicts(const JoclProblem& problem,
                          const JoclBeliefs& beliefs,
                          const JointDecodeOptions& options,
                          std::vector<int64_t>* np_link,
                          std::vector<int64_t>* rp_link);

/// \brief The full global decode: linking decode, canonicalization
/// clustering over the pair-marginal graph (with the JOCLlink
/// group-by-entity fallback), conflict resolution, and mention-label
/// materialization. Fills np_cluster / rp_cluster / np_link / rp_link of
/// \p result (diagnostics, triples and weights are the caller's).
void DecodeJointResult(const JoclProblem& problem, const JoclBeliefs& beliefs,
                       const JointDecodeOptions& options, JoclResult* result);

}  // namespace jocl

#endif  // JOCL_CORE_DECODE_H_

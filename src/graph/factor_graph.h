#ifndef JOCL_GRAPH_FACTOR_GRAPH_H_
#define JOCL_GRAPH_FACTOR_GRAPH_H_

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "util/result.h"

namespace jocl {

/// Index of a variable node within a FactorGraph.
using VariableId = size_t;
/// Index of a factor node within a FactorGraph.
using FactorId = size_t;
/// Index into the shared weight vector.
using WeightId = size_t;

/// \brief One (weight, value) entry of a feature vector.
struct FeatureEntry {
  WeightId weight = 0;
  double value = 0.0;
};

/// \brief Per-assignment features of a factor.
///
/// A factor over variables with cardinalities (c_1, .., c_k) has
/// `c_1 * .. * c_k` assignments, indexed row-major with the *last* scope
/// variable fastest. Each assignment carries a feature vector; the
/// factor's log-potential under weights `w` is
/// `log phi(a) = sum_i w[entry_i.weight] * entry_i.value` — the paper's
/// exponential-linear factor function `H_j(C_j) ∝ exp{w^T h_j(C_j)}`
/// (Eq. 1; the local normalizer `Z_j` cancels in message passing and
/// gradient, so it is never materialized).
///
/// Two storage modes:
///  * sparse — arbitrary (weight, value) lists per assignment (the F1–F6
///    signal factors, a handful of features over few assignments);
///  * uniform — one shared weight with a dense value per assignment (the
///    U1–U7 heuristic factors, one weight over many assignments). This is
///    ~5x smaller, which matters with tens of thousands of ternary factors.
class FeatureTable {
 public:
  FeatureTable() = default;

  /// Creates a sparse table for the given number of assignments.
  explicit FeatureTable(size_t assignment_count)
      : sparse_(assignment_count) {}

  /// Creates a uniform table: a single weight whose feature value is
  /// `values[assignment]`.
  static FeatureTable Uniform(WeightId weight, std::vector<double> values) {
    FeatureTable table;
    table.uniform_ = true;
    table.uniform_weight_ = weight;
    table.uniform_values_ = std::move(values);
    return table;
  }

  size_t assignment_count() const {
    return uniform_ ? uniform_values_.size() : sparse_.size();
  }

  /// Appends one feature entry to the given assignment. Sparse mode only:
  /// a uniform table has no per-assignment entry lists, so the call is
  /// rejected (assert in debug builds, ignored in release) instead of
  /// indexing into the empty sparse storage.
  void Add(size_t assignment, WeightId weight, double value) {
    assert(!uniform_ && "FeatureTable::Add is invalid on a uniform table");
    assert(assignment < sparse_.size() && "assignment out of range");
    if (uniform_ || assignment >= sparse_.size()) return;
    sparse_[assignment].push_back(FeatureEntry{weight, value});
  }

  /// True for tables created with Uniform().
  bool is_uniform() const { return uniform_; }

  /// The shared weight of a uniform table (valid only when is_uniform()).
  WeightId uniform_weight() const { return uniform_weight_; }

  /// Per-assignment feature values of a uniform table (valid only when
  /// is_uniform()).
  const std::vector<double>& uniform_values() const { return uniform_values_; }

  /// Sparse entries of one assignment (valid only when !is_uniform()).
  const std::vector<FeatureEntry>& entries(size_t assignment) const {
    assert(!uniform_ && "FeatureTable::entries is invalid on a uniform table");
    assert(assignment < sparse_.size() && "assignment out of range");
    return sparse_[assignment];
  }

  /// Log-potential of the assignment under the weights.
  double LogPotential(size_t assignment,
                      const std::vector<double>& weights) const {
    if (uniform_) {
      return weights[uniform_weight_] * uniform_values_[assignment];
    }
    double total = 0.0;
    for (const auto& entry : sparse_[assignment]) {
      total += weights[entry.weight] * entry.value;
    }
    return total;
  }

 private:
  std::vector<std::vector<FeatureEntry>> sparse_;
  bool uniform_ = false;
  WeightId uniform_weight_ = 0;
  std::vector<double> uniform_values_;
};

/// \brief A bipartite factor graph with shared log-linear weights, stored
/// in the flat CSR layout the inference engines walk.
///
/// Variables have arbitrary finite cardinality. Factors attach a
/// FeatureTable whose entries reference a *global* weight vector, so many
/// factors share the same parameters (all F1 factors share α1, etc.) —
/// the structure the paper's learning algorithm (§3.4) requires.
///
/// There is one representation: AddVariable/AddFactor append straight to
/// contiguous index arrays, so an engine walks the graph with nothing but
/// offset arithmetic.
///
///  * **Edges.** Each (factor, slot) pair is one *edge*, numbered by
///    factor in scope order: edges of factor f are
///    `[scope_offset(f), scope_offset(f+1))`. `scope_var(e)` is the
///    variable on edge e, `edge_factor(e)` its factor, and
///    `slot_stride(e)` its row-major stride inside the factor's assignment
///    index (last slot fastest — the FeatureTable convention; engines use
///    the strides to pin clamped slots and skip their inconsistent
///    assignments).
///  * **Lanes.** `[edge_lane_offset(e), edge_lane_offset(e+1))` is the
///    edge's span in a message arena and `[var_lane_offset(v),
///    var_lane_offset(v+1))` the variable's span in a belief arena. Each
///    lane is padded to a multiple of kLaneDoubles (util/aligned.h) so
///    every lane of a kArenaAlignment-aligned arena starts on a
///    kLaneAlignment boundary; the padding tails are never read, so the
///    layout changes memory placement only — not an arithmetic result.
///  * **Assignments.** Factor f's assignments occupy the global index
///    range `[assignment_offset(f), assignment_offset(f+1))` in any
///    per-assignment arena (log-potential caches).
///  * **Features.** AddFactor flattens the table on the spot. All sparse
///    entries live in one shared `entry_pool()`; global assignment g owns
///    `entry_pool[entry_offset[g] .. entry_offset[g+1])`. Uniform tables
///    keep their compact one-weight form: values sit in `uniform_pool()`
///    from the factor's uniform offset.
///  * **Clamps.** One observed state per variable (-1 = free). Clamps are
///    not structural: engines read them at Run() time, so the learner can
///    clamp/unclamp labels between runs on one engine. Construct a new
///    engine after AddVariable/AddFactor.
class FactorGraph {
 public:
  FactorGraph() = default;

  /// Adds a variable with the given number of states (< 2^32); returns its
  /// id.
  VariableId AddVariable(size_t cardinality);

  /// Adds a factor over \p scope with per-assignment features.
  /// The feature table must have exactly prod(cardinality of scope vars)
  /// assignments, and that product must fit in size_t; returns an error
  /// otherwise (and leaves the graph unchanged).
  Result<FactorId> AddFactor(const std::vector<VariableId>& scope,
                             const FeatureTable& features);

  /// Declares the size of the shared weight vector. Feature entries must
  /// reference weights below this count.
  void set_weight_count(size_t count) { weight_count_ = count; }
  size_t weight_count() const { return weight_count_; }

  /// Verifies every structural invariant the engines rely on — positive
  /// cardinalities, scope variables in range, assignment counts that fit
  /// in size_t and match the flattened tables, weight references below
  /// weight_count, clamps within cardinality — and returns a descriptive
  /// InvalidArgument / FailedPrecondition Status instead of the undefined
  /// behavior a Run() over a malformed graph would produce.
  Status Validate() const;

  // ---- clamps ----

  /// Clamps a variable to an observed state (for conditioned inference).
  Status Clamp(VariableId id, size_t state);

  /// Removes the clamp from a variable.
  void Unclamp(VariableId id) { clamped_state_[id] = -1; }

  /// Removes all clamps.
  void UnclampAll();

  /// True iff the variable is currently clamped.
  bool IsClamped(VariableId id) const { return clamped_state_[id] >= 0; }

  /// Observed state of a variable; < 0 means free.
  int64_t clamped_state(VariableId id) const { return clamped_state_[id]; }

  // ---- sizes ----

  size_t variable_count() const { return cardinality_.size(); }
  size_t factor_count() const { return factor_uniform_.size(); }
  size_t edge_count() const { return scope_var_.size(); }
  size_t total_assignments() const { return assignment_offset_.back(); }
  size_t total_edge_lane_states() const { return edge_lane_offset_.back(); }
  size_t total_var_lane_states() const { return var_lane_offset_.back(); }
  /// Largest arity of any factor, and the largest sum of a factor's
  /// padded scope lanes (engine scratch sizing).
  size_t max_arity() const { return max_arity_; }
  size_t max_factor_lane_states() const { return max_factor_lane_states_; }

  // ---- variables ----

  size_t cardinality(VariableId v) const { return cardinality_[v]; }
  /// Valid for v in [0, variable_count()].
  size_t var_lane_offset(VariableId v) const { return var_lane_offset_[v]; }

  // ---- factors and edges ----

  /// Valid for f in [0, factor_count()].
  size_t scope_offset(FactorId f) const { return scope_offset_[f]; }
  size_t arity(FactorId f) const {
    return scope_offset_[f + 1] - scope_offset_[f];
  }
  /// Valid for f in [0, factor_count()].
  size_t assignment_offset(FactorId f) const { return assignment_offset_[f]; }
  uint32_t scope_var(size_t e) const { return scope_var_[e]; }
  uint32_t edge_factor(size_t e) const { return edge_factor_[e]; }
  size_t slot_stride(size_t e) const { return slot_stride_[e]; }
  /// Valid for e in [0, edge_count()].
  size_t edge_lane_offset(size_t e) const { return edge_lane_offset_[e]; }

  /// Number of joint assignments of a factor's scope.
  size_t AssignmentCount(FactorId f) const {
    return assignment_offset_[f + 1] - assignment_offset_[f];
  }

  /// Decodes a row-major assignment index into per-slot states.
  void DecodeAssignment(FactorId f, size_t assignment,
                        std::vector<size_t>* states) const;

  // ---- features ----

  /// Flat sparse entries of every sparse factor, in factor then
  /// assignment order.
  const std::vector<FeatureEntry>& entry_pool() const { return entry_pool_; }
  /// Flat values of every uniform factor, in factor order.
  const std::vector<double>& uniform_pool() const { return uniform_pool_; }

  /// Log-potential of factor \p f's local assignment \p a under
  /// \p weights: `sum_i w[entry_i.weight] * entry_i.value`.
  double LogPotential(FactorId f, size_t a,
                      const std::vector<double>& weights) const {
    if (factor_uniform_[f]) {
      return weights[uniform_weight_[f]] *
             uniform_pool_[uniform_offset_[f] + a];
    }
    const size_t g = assignment_offset_[f] + a;
    double total = 0.0;
    for (size_t i = entry_offset_[g]; i < entry_offset_[g + 1]; ++i) {
      total += weights[entry_pool_[i].weight] * entry_pool_[i].value;
    }
    return total;
  }

  /// Fills \p out (resized to total_assignments()) with the log-potential
  /// of every assignment of every factor. Engines call this once per Run —
  /// the weights are fixed within a run, so the table is shared by every
  /// subsequent sweep instead of being recomputed per message update.
  void ComputeLogPotentials(const std::vector<double>& weights,
                            std::vector<double>* out) const;

  /// Invokes `fn(weight, value)` for each feature of factor \p f's local
  /// assignment \p a.
  template <typename Fn>
  void ForEachFeature(FactorId f, size_t a, Fn&& fn) const {
    if (factor_uniform_[f]) {
      fn(uniform_weight_[f], uniform_pool_[uniform_offset_[f] + a]);
      return;
    }
    const size_t g = assignment_offset_[f] + a;
    for (size_t i = entry_offset_[g]; i < entry_offset_[g + 1]; ++i) {
      fn(entry_pool_[i].weight, entry_pool_[i].value);
    }
  }

 private:
  // ---- variables ----
  std::vector<uint32_t> cardinality_;        // [nv]
  std::vector<int64_t> clamped_state_;       // [nv], -1 = free
  std::vector<size_t> var_lane_offset_{0};   // [nv + 1]

  // ---- factor scopes (CSR over edges) ----
  std::vector<size_t> scope_offset_{0};      // [nf + 1] -> edge id ranges
  std::vector<uint32_t> scope_var_;          // [ne]
  std::vector<uint32_t> edge_factor_;        // [ne] owning factor
  std::vector<size_t> slot_stride_;          // [ne] row-major stride
  std::vector<size_t> edge_lane_offset_{0};  // [ne + 1] -> message arenas
  std::vector<size_t> assignment_offset_{0}; // [nf + 1] global assignments

  // ---- features (one flat pool per graph) ----
  std::vector<uint8_t> factor_uniform_;      // [nf] 1 = uniform table
  std::vector<WeightId> uniform_weight_;     // [nf] (uniform only)
  std::vector<size_t> uniform_offset_;       // [nf] (uniform only)
  std::vector<double> uniform_pool_;
  std::vector<size_t> entry_offset_{0};      // [total_assignments + 1]
  std::vector<FeatureEntry> entry_pool_;

  size_t max_arity_ = 0;
  size_t max_factor_lane_states_ = 0;
  size_t weight_count_ = 0;
};

/// \brief Connected-component label of every variable (variables sharing a
/// factor are connected), labels dense in [0, component count).
std::vector<size_t> FactorGraphComponents(const FactorGraph& graph);

}  // namespace jocl

#endif  // JOCL_GRAPH_FACTOR_GRAPH_H_

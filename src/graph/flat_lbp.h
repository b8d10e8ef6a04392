#ifndef JOCL_GRAPH_FLAT_LBP_H_
#define JOCL_GRAPH_FLAT_LBP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/factor_graph.h"
#include "graph/inference.h"
#include "util/aligned.h"

namespace jocl {

/// \brief Log-space Loopy Belief Propagation over flat, aligned arenas.
///
/// All state lives in contiguous arrays indexed by the FactorGraph's flat
/// offsets: factor->variable and variable->factor messages in
/// per-edge *lane* arenas (each lane padded to a vector boundary — see
/// util/aligned.h), belief sums and marginals in per-variable lane arenas,
/// and a per-assignment log-potential table computed once per Run (weights
/// are fixed within a run, so no message update ever walks a feature
/// list). There is no per-factor or per-sweep allocation.
///
/// Two message-update kernels share this layout (LbpOptions::kernel):
///
///  * **kVectorized** (default) — arity-specialized updates (unary,
///    binary, ternary factors; the generic path covers higher arities)
///    whose per-state inner loops run straight over the padded lanes so
///    the compiler can vectorize them. Every floating-point operation
///    happens in exactly the reference kernel's order — the message total
///    is accumulated `((lp + m0) + m1) + m2`, the cavity is `total -
///    m_slot`, log-sum-exp accumulates cell-sequentially in row-major
///    assignment order — so marginals are *byte-identical* to the
///    reference; the speedup comes from eliminating the mixed-radix
///    counter, per-assignment feasibility re-checks, and per-state offset
///    chasing, plus vectorized belief/cavity/normalize lane loops.
///  * **kScalarReference** — the pre-vectorization kernel (generic
///    mixed-radix assignment enumeration), kept as the byte-identity
///    oracle for tests and the baseline the kernel benchmarks guard
///    against.
///
/// Execution is component-at-a-time: messages never cross connected
/// components, so each component runs its own schedule to *its own*
/// convergence within max_iterations. Components touch disjoint arena
/// slices, which makes the component loop trivially parallel:
/// `options.num_threads > 1` distributes components across a thread pool
/// and produces bit-for-bit identical marginals.
///
/// Per component, LbpOptions::schedule selects between the exact staged
/// sweep (factor->variable updates group by group with variable->factor
/// messages refreshed between groups — the paper's §3.4 procedure) and
/// the residual-priority schedule (kResidual): a bucketed priority
/// queue keyed by how much each factor's inputs moved since its last
/// update, highest residual first, with an update budget of
/// `max_iterations * component factor count`. Residual runs report their
/// convergence certificate through LbpResult (final_residual = max
/// residual at stop, sweeps_skipped = unspent budget in sweeps).
class FlatLbpEngine : public InferenceEngine {
 public:
  /// Binds \p graph and derives its attachment lists, connected
  /// components and schedule. \p graph and \p weights must outlive the
  /// engine; clamps are read at Run() time, but any AddVariable/AddFactor
  /// on \p graph needs a new engine.
  FlatLbpEngine(const FactorGraph* graph, const std::vector<double>* weights,
                LbpOptions options = {});

  FlatLbpEngine(const FlatLbpEngine&) = delete;
  FlatLbpEngine& operator=(const FlatLbpEngine&) = delete;

  Status Validate() const override;

  LbpResult Run() override;

  const std::vector<double>& Marginal(VariableId id) const override {
    return marginals_[id];
  }

  std::vector<double> FactorBelief(FactorId id) const override;

  void AccumulateExpectedFeatures(
      std::vector<double>* expectations) const override;

  /// Bethe approximation of log Z from the run's beliefs:
  ///   `sum_f sum_a b_f(a)(log psi_f(a) - log b_f(a))
  ///    + sum_v (d_v - 1) sum_x b_v(x) log b_v(x)`.
  /// Exact on trees; honors clamps (a clamped variable's delta belief has
  /// zero entropy and restricts its factors' belief support).
  double LogPartitionEstimate() const override;

  std::vector<size_t> Decode() const override;

  /// Number of connected components (independent LBP sub-problems).
  size_t component_count() const { return component_count_; }

  /// Edges touching variable \p v, ascending (the attachment CSR).
  std::vector<uint32_t> AttachedEdges(VariableId v) const;
  /// Variables of component \p k, ascending.
  std::vector<uint32_t> ComponentVariables(size_t k) const;
  /// Factors of component \p k with a non-empty scope, in schedule order.
  std::vector<uint32_t> ComponentFactors(size_t k) const;

 private:
  /// Per-component convergence record, merged into the LbpResult.
  struct ComponentStats {
    size_t iterations = 0;
    bool converged = false;
    double final_residual = 0.0;
    std::vector<double> residuals;
    size_t message_updates = 0;
    size_t residual_pops = 0;
    size_t sweeps_skipped = 0;
  };

  /// Thread-local scratch for one worker (sized once per worker; the
  /// residual-queue arrays are factor-indexed but each component only
  /// touches — and resets — its own factors' entries).
  struct Scratch {
    AlignedVector<double> fresh;   // max_factor_lane_states accumulators
    std::vector<size_t> states;    // max_arity mixed-radix counter
    std::vector<uint8_t> pinned;   // max_arity clamped-slot flags
    std::vector<size_t> cards;     // max_arity hoisted cardinalities
    std::vector<size_t> strides;   // max_arity hoisted assignment strides
    std::vector<size_t> lanes;     // max_arity hoisted lane offsets
    AlignedVector<double> lane;    // one padded lane (residual deltas)
    // ---- residual-schedule state (sized on first kResidual component) --
    std::vector<double> priority;  // [nf] pending residual per factor
    std::vector<int32_t> bucket_of;  // [nf] queued bucket, -1 = not queued
    std::vector<uint32_t> stamp;   // [nf] push generation (stale detection)
    std::vector<std::vector<uint64_t>> buckets;  // FIFO entries per bucket
    std::vector<size_t> bucket_head;  // consumed prefix per bucket
  };

  /// Derives the attachment CSR and the component lists; returns each
  /// variable's component label for BuildSchedule.
  std::vector<size_t> BuildTopology();
  void BuildSchedule(const std::vector<size_t>& component_of_var);
  void InitArenas();
  ComponentStats RunComponent(size_t component, Scratch* scratch);
  ComponentStats RunComponentResidual(size_t component, Scratch* scratch);

  /// Dispatches one factor update to the selected kernel and finishes
  /// with the shared normalize/damp/residual epilogue.
  void UpdateFactorMessages(FactorId f, double* residual, Scratch* scratch);
  template <bool kMaxProduct>
  void UpdateFactorGeneric(FactorId f, Scratch* scratch);
  template <bool kMaxProduct>
  void UpdateFactorUnary(FactorId f, Scratch* scratch);
  template <bool kMaxProduct>
  void UpdateFactorBinary(FactorId f, Scratch* scratch);
  template <bool kMaxProduct>
  void UpdateFactorTernary(FactorId f, Scratch* scratch);
  void FinishFactorUpdate(FactorId f, double* residual, Scratch* scratch);

  /// Recomputes variable \p v's belief sums and outgoing v->f cavity
  /// messages from the current f->v messages (normalized, clamp-aware).
  void RefreshVariable(uint32_t v);
  void RefreshComponentVariables(size_t component);
  /// Residual-schedule variant: same message math as RefreshVariable, but
  /// measures each outgoing message's change and raises the receiving
  /// factor's queue priority accordingly.
  void RefreshVariableTrackDeltas(uint32_t v, Scratch* scratch);
  void BumpFactorPriority(uint32_t f, double delta, Scratch* scratch);

  void MaterializeComponentMarginals(size_t component);

  const FactorGraph* graph_;
  const std::vector<double>* weights_;
  LbpOptions options_;

  // Derived topology: edges touching variable v are
  // attach_edge_[attach_offset_[v] .. attach_offset_[v+1]); variables of
  // component k are comp_vars_[comp_var_offset_[k] .. comp_var_offset_[k+1]).
  // Messages never cross components, so each runs independently over
  // disjoint arena slices.
  std::vector<size_t> attach_offset_;     // [nv + 1]
  std::vector<uint32_t> attach_edge_;     // [ne], grouped by variable
  size_t component_count_ = 0;
  std::vector<size_t> comp_var_offset_;   // [nc + 1]
  std::vector<uint32_t> comp_vars_;       // [nv], grouped by component

  // Schedule flattened per component: factors of component c occupy
  // sched_factor_[sched_offset_[c] .. sched_offset_[c+1]), ordered by
  // schedule group then occurrence; sched_group_ marks group boundaries.
  std::vector<uint32_t> sched_factor_;
  std::vector<uint32_t> sched_group_;
  std::vector<size_t> sched_offset_;

  // Flat arenas (log space). Message and belief arenas use the graph's
  // *lane* offsets — per-edge / per-variable spans padded to
  // kLaneAlignment — so arena bases and every lane are vector-aligned.
  // The padding tails are initialized but never read.
  std::vector<double> log_potential_;    // [total_assignments]
  AlignedVector<double> msg_f2v_;        // [total_edge_lane_states]
  AlignedVector<double> msg_v2f_;        // [total_edge_lane_states]
  AlignedVector<double> belief_;         // [total_var_lane_states]
  AlignedVector<double> marginal_;       // [total_var_lane_states], probs

  // Materialized per-variable marginals (LbpResult-compatible shape).
  std::vector<std::vector<double>> marginals_;
};

}  // namespace jocl

#endif  // JOCL_GRAPH_FLAT_LBP_H_

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

/// \brief Loopy Belief Propagation over flat, aligned arenas.
///
/// All state lives in contiguous arrays indexed by the FactorGraph's flat
/// offsets: factor->variable and variable->factor log-messages in
/// per-edge *lane* arenas (each lane padded to a vector boundary — see
/// util/aligned.h), belief sums and marginals in per-variable lane arenas,
/// and one per-assignment potential table computed once per Run (weights
/// are fixed within a run, so no message update ever walks a feature
/// list). There is no per-factor or per-sweep allocation.
///
/// The engine runs sum-product (the paper's marginals, §3.4–3.5; Decode()
/// takes their argmax). Messages are stored in log space; the factor
/// update runs in probability space. Run() rewrites each factor's table in
/// place as `psi(a) = exp(lp(a) - shift_f)` with `shift_f = max_a lp(a)`;
/// an update exponentiates each incoming lane once (`mu = exp(m)`,
/// `-inf -> 0`), accumulates every cavity as a plain product-sum
/// (`acc0 += (psi * mu1) * mu2`, slots in scope order, assignments in
/// row-major order) and takes one log per output state. A range guard
/// keeps this exact: when a lower bound on the log of every product
/// (`min lp - max lp` plus each slot's smallest finite input) falls below
/// kMinLogProduct, where small terms would flush to zero, the update runs
/// through the log-space generic kernel instead (counted in
/// LbpResult::log_space_updates). A factor whose own range is below the
/// bound keeps its table in log space.
///
/// Two kernels share this layout (LbpOptions::kernel):
///
///  * **kVectorized** (default) — arity-specialized updates (unary,
///    binary, ternary factors; the generic path covers higher arities)
///    whose per-state inner loops run straight over the padded lanes.
///    Every floating-point operation happens in exactly the reference
///    kernel's order, so marginals are *byte-identical* to the reference;
///    the speedup comes from eliminating the mixed-radix counter,
///    per-assignment feasibility re-checks and per-state offset chasing.
///  * **kScalarReference** — the generic mixed-radix assignment
///    enumeration, kept as the byte-identity oracle for tests and the
///    baseline the kernel benchmarks guard against.
///
/// The guard decision, the -inf skip rule and the log-space fallback are
/// shared by both kernels, so the identity holds on guarded updates too.
///
/// Execution is component-at-a-time: messages never cross connected
/// components, so each component runs its own schedule to *its own*
/// convergence within max_iterations. Components touch disjoint arena
/// slices, which makes the component loop trivially parallel:
/// `options.num_threads > 1` distributes components across a thread pool
/// and produces bit-for-bit identical marginals.
///
/// Each component runs the residual-priority schedule: a bucketed
/// priority queue keyed by how much each factor's inputs moved since its
/// last update, highest residual first, seeded with every factor in
/// LbpOptions::factor_schedule order (so the first sweep's worth of pops
/// is the paper's §3.4 staged order), with an update budget of
/// `max_iterations * component factor count`. Runs report their
/// convergence certificate through LbpResult (final_residual = max
/// residual at stop, sweeps_skipped = unspent budget in sweeps).
class FlatLbpEngine : public InferenceEngine {
 public:
  /// Range guard of the probability-space update: a sum-product update
  /// whose products' log lower bound falls below this runs in log space.
  /// exp(-600) is far above the smallest normal double, so every product
  /// and every sum of the probability-space path stays a normal number.
  static constexpr double kMinLogProduct = -600.0;

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
    size_t message_updates = 0;
    size_t log_space_updates = 0;
    size_t residual_pops = 0;
    size_t sweeps_skipped = 0;
  };

  /// Thread-local scratch for one worker (sized once per worker; the
  /// residual-queue arrays are factor-indexed but each component only
  /// touches — and resets — its own factors' entries).
  struct Scratch {
    AlignedVector<double> fresh;   // max_factor_lane_states accumulators
    // max_factor_lane_states: exp'd inputs (probability-space update) or
    // per-cell exp sums (log-space sum-product fallback)
    AlignedVector<double> aux;
    std::vector<size_t> states;    // max_arity mixed-radix counter
    std::vector<uint8_t> pinned;   // max_arity clamped-slot flags
    std::vector<size_t> cards;     // max_arity hoisted cardinalities
    std::vector<size_t> strides;   // max_arity hoisted assignment strides
    std::vector<size_t> lanes;     // max_arity hoisted lane offsets
    AlignedVector<double> lane;    // one padded lane (residual deltas)
    // ---- residual-queue state (sized on the first component run) ------
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

  /// Rewrites the potential table in probability space and
  /// records each factor's shift and log range (see the class comment).
  void PreparePotentials();
  /// Absolute log-potential of the factor's \p a-th assignment, whichever
  /// space its table is in.
  double LogPotential(FactorId f, size_t a) const;

  /// Dispatches one factor update to the selected kernel and finishes
  /// with the shared normalize epilogue. Returns true when the update ran
  /// in log space (the range guard tripped).
  bool UpdateFactorMessages(FactorId f, Scratch* scratch);
  /// Fills scratch->aux with `exp(m)` of every incoming lane and returns
  /// whether every product of the update stays above kMinLogProduct.
  bool PrepareProbabilityInputs(FactorId f, Scratch* scratch);
  // Probability-space kernels: cavity product-sums in fresh.
  void UpdateProductGeneric(FactorId f, Scratch* scratch);
  void UpdateProductUnary(FactorId f, Scratch* scratch);
  void UpdateProductBinary(FactorId f, Scratch* scratch);
  void UpdateProductTernary(FactorId f, Scratch* scratch);
  // The guarded log-space fallback: a max pass pivots a log-sum-exp pass.
  void UpdateLogSpaceGeneric(FactorId f, Scratch* scratch);
  /// Calls `visit(a)` for every assignment of \p f consistent with the
  /// clamps, in row-major order, with scratch->states/lanes describing it.
  template <typename Visit>
  void ForEachClampedAssignment(FactorId f, Scratch* scratch, Visit&& visit);
  void FinishFactorUpdate(FactorId f, Scratch* scratch);

  /// Recomputes variable \p v's belief sums and outgoing v->f cavity
  /// messages from the current f->v messages (normalized, clamp-aware).
  void RefreshVariable(uint32_t v);
  void RefreshComponentVariables(size_t component);
  /// Same message math as RefreshVariable, but measures each outgoing
  /// message's change and raises the receiving factor's queue priority
  /// accordingly.
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

  // Seed order flattened per component: factors of component c occupy
  // sched_factor_[sched_offset_[c] .. sched_offset_[c+1]), in
  // factor_schedule order then insertion order.
  std::vector<uint32_t> sched_factor_;
  std::vector<size_t> sched_offset_;

  // Flat arenas. Message and belief arenas (log space) use the graph's
  // *lane* offsets — per-edge / per-variable spans padded to
  // kLaneAlignment — so arena bases and every lane are vector-aligned.
  // The padding tails are initialized but never read. potential_ holds a
  // factor's psi table when log_range_[f] >= kMinLogProduct and its
  // log-potentials (shift 0) otherwise.
  std::vector<double> potential_;        // [total_assignments]
  std::vector<double> log_shift_;        // [nf] max lp of psi tables
  std::vector<double> log_range_;        // [nf] min lp - max lp, or -inf
  AlignedVector<double> msg_f2v_;        // [total_edge_lane_states]
  AlignedVector<double> msg_v2f_;        // [total_edge_lane_states]
  AlignedVector<double> belief_;         // [total_var_lane_states]
  AlignedVector<double> marginal_;       // [total_var_lane_states], probs

  // Materialized per-variable marginals (LbpResult-compatible shape).
  std::vector<std::vector<double>> marginals_;
};

}  // namespace jocl

#endif  // JOCL_GRAPH_FLAT_LBP_H_

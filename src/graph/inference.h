#ifndef JOCL_GRAPH_INFERENCE_H_
#define JOCL_GRAPH_INFERENCE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "graph/factor_graph.h"
#include "util/status.h"

namespace jocl {

/// \brief Which message-update kernel executes the sweep.
enum class LbpKernel {
  /// Default: arity-specialized probability-space product-sums over the
  /// padded, aligned message lanes (FlatLbpEngine's class comment).
  /// Byte-identical to kScalarReference: each cavity term and each cell's
  /// accumulation keep the reference's operation order, and the range
  /// guard and its log-space fallback are shared — it only drops the
  /// mixed-radix bookkeeping.
  kVectorized,
  /// The scalar reference kernel (generic mixed-radix assignment
  /// enumeration, same arithmetic). Kept as the byte-identity oracle for
  /// tests and the baseline for bench_kernel's speedup guard.
  kScalarReference,
};

/// \brief Options for a sum-product Loopy Belief Propagation run: the
/// paper's inference (§3.4–3.5), marginals that Decode() takes the argmax
/// of. Messages are undamped.
///
/// Every run uses the residual schedule (residual belief propagation,
/// Elidan et al.): a bucketed priority queue orders factors by how much
/// their inputs moved since their last update, highest first, and a
/// component stops when every pending residual is below `tolerance` or
/// its update budget (`max_iterations` sweeps' worth of factor updates)
/// is spent. The run is deterministic for every thread and shard count
/// and reports its convergence certificate (LbpResult::final_residual).
struct LbpOptions {
  /// Update budget per connected component, in sweeps' worth of factor
  /// updates. The paper reports convergence within twenty iterations
  /// (§3.4).
  size_t max_iterations = 20;
  /// A component stops once every pending factor residual (the largest
  /// change its next update could make to a factor->variable
  /// log-message) is below this.
  double tolerance = 1e-4;
  /// Optional seed order: groups of factor ids, flattened in order, that
  /// the residual queue pops first (the paper's staged working procedure,
  /// §3.4, as the first sweep's worth of updates). Factors missing from
  /// every group follow in insertion order. Engines restrict the order to
  /// each connected component (messages never cross components).
  std::vector<std::vector<FactorId>> factor_schedule;
  /// Worker threads for component-parallel execution: 1 = sequential,
  /// 0 = one per hardware thread, n = n workers. Components are
  /// independent sub-problems over disjoint arena slices, so marginals
  /// are bit-for-bit identical for every thread count.
  size_t num_threads = 1;
  /// Message-update kernel. kVectorized is byte-identical to
  /// kScalarReference; the reference exists as the identity oracle.
  LbpKernel kernel = LbpKernel::kVectorized;
};

/// \brief Marginals and convergence diagnostics produced by inference.
struct LbpResult {
  /// Per-variable marginal distribution (clamped variables get a delta).
  std::vector<std::vector<double>> marginals;
  /// Max sweeps' worth of factor updates spent by any connected component
  /// (its updates over its factor count, rounded up).
  size_t iterations = 0;
  /// True when every component met the tolerance before max_iterations.
  bool converged = false;
  /// Connected components that stopped on the budget without meeting the
  /// tolerance (0 exactly when `converged`). Summed across components and
  /// shards.
  size_t unconverged_components = 0;
  /// The convergence certificate: the largest residual still pending in
  /// any component when the run stopped, an upper bound on how much any
  /// factor's next message update could still move.
  double final_residual = 0.0;

  // ---- kernel counters (summed across components/shards) ----
  /// Factor message updates executed (one per UpdateFactorMessages call;
  /// each recomputes all of the factor's outgoing messages).
  size_t message_updates = 0;
  /// Residual-priority queue pops (includes stale pops).
  size_t residual_pops = 0;
  /// Full sweeps' worth of factor updates *not* spent: the budget left
  /// over, the "iterations saved" half of the residual certificate.
  size_t sweeps_skipped = 0;
  /// Sum-product updates the range guard ran in log space instead of
  /// probability space (FlatLbpEngine; 0 at ordinary weight scales).
  size_t log_space_updates = 0;
};

/// \brief Common interface of the inference engines.
///
/// One engine instance binds a factor graph and a weight vector; Run()
/// computes marginals, after which the query methods are valid. Engines
/// honor clamped variables (delta messages and delta marginals), which is
/// how the learner's conditioned pass `p(Y | Y^L)` is realized.
///
/// The library ships one engine, FlatLbpEngine (graph/flat_lbp.h):
/// arena-backed loopy BP, sequential or component-parallel (identical
/// marginals either way). The interface is how tests substitute the
/// brute-force ExactEngine (tests/support/exact.h) as ground truth on tiny
/// graphs.
class InferenceEngine {
 public:
  virtual ~InferenceEngine() = default;

  /// Checks the engine's Run() preconditions — the bound weight vector
  /// sized to the graph's weight count, clamps within cardinality, a
  /// structurally valid graph — returning a descriptive Status instead of
  /// the undefined behavior a malformed binding would produce. Cheap
  /// relative to a Run; callers on untrusted inputs check once before the
  /// first Run (graphs built by core/graph_builder are valid by
  /// construction).
  virtual Status Validate() const = 0;

  /// Executes inference; query methods below are valid afterwards.
  virtual LbpResult Run() = 0;

  /// Marginal of one variable (valid after Run()).
  virtual const std::vector<double>& Marginal(VariableId id) const = 0;

  /// Belief over a factor's assignments (normalized; valid after Run()).
  virtual std::vector<double> FactorBelief(FactorId id) const = 0;

  /// Accumulates `sum_a b_f(a) * h_f(a)` over every factor into
  /// \p expectations (size must be weight_count). Used by the learner for
  /// `E[h]` under the current (clamped or free) distribution.
  virtual void AccumulateExpectedFeatures(
      std::vector<double>* expectations) const = 0;

  /// Estimate of `log Z` of the current distribution (valid after Run(),
  /// honoring clamps). FlatLbpEngine returns the Bethe approximation from
  /// its beliefs (exact on trees); ExactEngine returns the exact value.
  /// The learner's per-iteration objective is
  /// `log p(Y^L) ≈ logZ_clamped − logZ_free`.
  virtual double LogPartitionEstimate() const = 0;

  /// Per-variable decoding: FlatLbpEngine takes each marginal's argmax;
  /// the test oracle ExactEngine returns the exact joint MAP.
  virtual std::vector<size_t> Decode() const = 0;
};

/// \brief A single value: CreateInferenceEngine always builds FlatLbpEngine.
/// Remains only for jbench/main.cc's call, which passes
/// `JoclOptions::inference_backend`; goes once the benchmark drops it.
enum class InferenceBackend { kLbp };

/// Instantiates the FlatLbpEngine over \p graph. \p graph and \p weights
/// must outlive the engine. LbpOptions::num_threads picks sequential (1,
/// the default) or component-parallel execution; marginals are identical
/// either way. The engine reads clamps at Run() time, so one engine
/// serves every clamped and free pass over an unchanged structure.
std::unique_ptr<InferenceEngine> CreateInferenceEngine(
    InferenceBackend backend, const FactorGraph* graph,
    const std::vector<double>* weights, LbpOptions options = {});

/// \brief Numerically stable log(sum(exp(values))).
double LogSumExp(const std::vector<double>& values);

}  // namespace jocl

#endif  // JOCL_GRAPH_INFERENCE_H_

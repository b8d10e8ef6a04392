#ifndef JOCL_CORE_SHARDED_LEARNER_H_
#define JOCL_CORE_SHARDED_LEARNER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/jocl.h"
#include "graph/learner.h"

namespace jocl {

/// \brief Stage timings + shape facts of one ShardedLearner::Learn call
/// (consumed by bench_learning_curve and the jocl_learn CLI). Each
/// `*_seconds` field is written only by the closing span it names.
struct LearnerRunStats {
  double problem_seconds = 0.0;    ///< BuildProblem ("build_problem")
  double cache_seconds = 0.0;      ///< SignalCache build ("signal_cache")
  double partition_seconds = 0.0;  ///< sharding + bin packing ("partition")
  double setup_seconds = 0.0;      ///< per-component graph build + engine
                                   ///< + labeling, wall ("setup")
  double learn_seconds = 0.0;      ///< gradient-ascent loop, wall
                                   ///< ("ascent"; one "iteration" span per
                                   ///< LearnerTrace::seconds)
  size_t components = 0;           ///< independent sub-problems
  size_t bins = 0;                 ///< scheduling bins actually used
  size_t labels = 0;               ///< (variable, state) gold labels
  size_t variables = 0;            ///< across all component graphs
  size_t factors = 0;
};

/// \brief Builds the learner's (variable, state) gold labels for a
/// problem from the dataset's gold annotations: pair variables get
/// same-group/different-group states, linking variables the state of
/// their gold candidate (NIL when unreachable). Works unchanged on
/// shard-local problems because their `triples` hold global dataset ids,
/// exactly like the monolithic problem's.
std::vector<std::pair<VariableId, size_t>> BuildGoldLabels(
    const Dataset& dataset, const JoclProblem& problem,
    const JoclGraph& jgraph, const GraphBuilderOptions& builder);

/// \brief Maximum-likelihood weight learning on the sharded runtime
/// machinery (paper §3.4 on the PR 2 execution stack).
///
/// The gradient `dO/dw = E[h | Y^L] − E[h]` decomposes over the factor
/// graph's connected components: both expectations are sums of per-factor
/// terms, every factor is internal to exactly one component
/// (`PartitionProblem`), and clamping a component's labels only
/// conditions that component's distribution. So the learner partitions
/// the labeled problem once, builds one graph and engine per component
/// through the `SignalCache` path, and runs the clamped and free passes
/// component-parallel on a worker pool — each component accumulating its
/// own feature-expectation vectors.
///
/// **Determinism.** Per-component expectations are a pure function of the
/// component's local problem and the current weights, and the global
/// gradient is reduced from them in ascending component order, one weight
/// at a time, on the main thread. Execution order never feeds the
/// reduction, so the learned weights (and the whole trace) are
/// byte-identical for every `num_threads` / `max_shards` setting — the
/// learning-side counterpart of `JoclRuntime::Infer`'s guarantee (tested
/// in tests/learner_runtime_test.cc).
class ShardedLearner {
 public:
  explicit ShardedLearner(JoclOptions options = {},
                          RuntimeOptions runtime = {});

  /// Learns shared factor weights from the gold labels of
  /// \p labeled_triples (dataset triple indices; the dataset must carry
  /// gold annotations for every enabled factor family). \p initial_weights
  /// empty = Jocl::DefaultWeights(), the uniform prior the L2 term
  /// regularizes toward. \p stats, when non-null, receives stage timings.
  Result<LearnerResult> Learn(const Dataset& dataset,
                              const SignalBundle& signals,
                              const std::vector<size_t>& labeled_triples,
                              std::vector<double> initial_weights = {},
                              LearnerRunStats* stats = nullptr) const;

  const JoclOptions& options() const { return options_; }
  const RuntimeOptions& runtime_options() const { return runtime_; }

 private:
  JoclOptions options_;
  RuntimeOptions runtime_;
};

}  // namespace jocl

#endif  // JOCL_CORE_SHARDED_LEARNER_H_

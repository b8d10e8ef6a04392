#ifndef JOCL_TESTS_SUPPORT_FACTOR_GRAPH_LEARNER_H_
#define JOCL_TESTS_SUPPORT_FACTOR_GRAPH_LEARNER_H_

#include <memory>
#include <utility>
#include <vector>

#include "graph/flat_lbp.h"
#include "graph/inference.h"
#include "graph/learner.h"

namespace jocl {

/// Builds the engine a FactorGraphLearner binds; \p graph and \p weights
/// outlive it.
using EngineFactory = std::unique_ptr<InferenceEngine> (*)(
    const FactorGraph* graph, const std::vector<double>* weights,
    LbpOptions options);

/// The EngineFactory of any engine constructible as
/// `Engine(graph, weights, options)`.
template <typename Engine>
std::unique_ptr<InferenceEngine> MakeEngine(const FactorGraph* graph,
                                            const std::vector<double>* weights,
                                            LbpOptions options) {
  return std::make_unique<Engine>(graph, weights, std::move(options));
}

/// \brief Maximum-likelihood learning of shared factor weights on one
/// graph (paper §3.4, Eq. 5–6) — the monolithic oracle that
/// `ShardedLearner` must agree with to float summation order
/// (tests/learner_runtime_test.cc, bench_learning_curve). Test-support
/// code, not part of libjocl.
///
/// The gradient of the partially-observed log-likelihood is
///   dO/dw = E_{p(Y|Y^L)}[h] − E_{p(Y)}[h]
/// Both expectations come from the bound engine (LBP by default): the
/// first by clamping the labeled variables to their observed states, the
/// second with all variables free. Weights are updated by ApplyAscentStep.
class FactorGraphLearner {
 public:
  explicit FactorGraphLearner(
      LearnerOptions options = {},
      EngineFactory make_engine = &MakeEngine<FlatLbpEngine>);

  /// Learns weights for \p graph given labels as (variable, state) pairs.
  /// \p graph is mutated transiently (clamps added/removed) but returned to
  /// its fully-unclamped state. Initial weights default to zeros when
  /// \p initial_weights is empty.
  LearnerResult Learn(FactorGraph* graph,
                      const std::vector<std::pair<VariableId, size_t>>& labels,
                      std::vector<double> initial_weights = {}) const;

 private:
  LearnerOptions options_;
  EngineFactory make_engine_;
};

}  // namespace jocl

#endif  // JOCL_TESTS_SUPPORT_FACTOR_GRAPH_LEARNER_H_

#ifndef JOCL_GRAPH_LEARNER_H_
#define JOCL_GRAPH_LEARNER_H_

#include <cstddef>
#include <vector>

#include "graph/inference.h"

namespace jocl {

/// \brief Options for gradient-ascent parameter learning.
struct LearnerOptions {
  /// Step size; the paper uses 0.05 in all experiments (§4.1).
  double learning_rate = 0.05;
  /// Gradient-ascent iterations.
  size_t iterations = 20;
  /// L2 regularization strength (0 = off). Regularizes toward the
  /// *initial* weights, not zero: the uniform initialization encodes the
  /// prior that every signal is somewhat informative, and a small labeled
  /// split should adjust — not erase — that prior.
  double l2 = 0.0;
  /// LBP settings shared by the clamped and free passes.
  LbpOptions lbp;
};

/// \brief Progress record for one learning iteration.
struct LearnerTrace {
  size_t iteration = 0;
  /// Estimated objective at this iteration's weights (before the update):
  /// `log p(Y^L) ≈ logZ_clamped − logZ_free` via the engine's
  /// LogPartitionEstimate (the Bethe approximation under LBP), minus the
  /// L2 penalty `l2/2 * |w − anchor|^2`. Ascends toward 0 as the clamped
  /// and free distributions' moments match.
  double objective = 0.0;
  double gradient_max_norm = 0.0;
  /// Wall-clock seconds this iteration took (both passes + update).
  double seconds = 0.0;
};

/// \brief Result of a learning run.
struct LearnerResult {
  std::vector<double> weights;
  std::vector<LearnerTrace> trace;
  bool converged = false;
};

/// \brief Learning stops once an iteration's gradient max-norm falls below
/// this (`ShardedLearner` and the test oracle `FactorGraphLearner` alike).
inline constexpr double kGradientTolerance = 1e-4;

/// \brief One (optionally L2-regularized) gradient-ascent step — the
/// single definition of the update math, shared by `ShardedLearner` and
/// the monolithic test oracle `FactorGraphLearner`
/// (tests/support/factor_graph_learner.h), which are required to agree to
/// float summation order (tests/learner_runtime_test.cc).
/// \p gradient_base holds `E[h | Y^L] − E[h]` per weight; \p log_likelihood the iteration's
/// `logZ_clamped − logZ_free` estimate. Updates \p weights in place and
/// returns the trace entry (`seconds` is left 0 for the caller to fill;
/// callers check `gradient_max_norm` against kGradientTolerance).
LearnerTrace ApplyAscentStep(const LearnerOptions& options, size_t iteration,
                             const std::vector<double>& gradient_base,
                             double log_likelihood,
                             const std::vector<double>& anchor,
                             std::vector<double>* weights);

}  // namespace jocl

#endif  // JOCL_GRAPH_LEARNER_H_

#include "support/factor_graph_learner.h"

#include <algorithm>
#include <cstddef>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace jocl {

FactorGraphLearner::FactorGraphLearner(LearnerOptions options,
                                       EngineFactory make_engine)
    : options_(std::move(options)), make_engine_(make_engine) {}

LearnerResult FactorGraphLearner::Learn(
    FactorGraph* graph,
    const std::vector<std::pair<VariableId, size_t>>& labels,
    std::vector<double> initial_weights) const {
  LearnerResult result;
  const size_t w = graph->weight_count();
  result.weights = std::move(initial_weights);
  result.weights.resize(w, 0.0);
  const std::vector<double> anchor = result.weights;  // regularization center

  std::vector<double> clamped_expect(w);
  std::vector<double> free_expect(w);
  std::vector<double> gradient_base(w);

  // Bind one engine to the graph for every pass below: the engine's
  // topology, schedule and arena capacity are shared across the
  // 2 * iterations runs. Clamps and weights are read live at Run() time,
  // so the clamp/unclamp cycling and the weight updates need no
  // reconstruction.
  std::unique_ptr<InferenceEngine> engine =
      make_engine_(graph, &result.weights, options_.lbp);

  Stopwatch watch;
  for (size_t iter = 0; iter < options_.iterations; ++iter) {
    watch.Reset();
    // E_{p(Y|Y^L)}[h]: clamp labels, run inference.
    graph->UnclampAll();
    for (const auto& [variable, state] : labels) {
      Status st = graph->Clamp(variable, state);
      (void)st;  // labels are validated by the caller
    }
    std::fill(clamped_expect.begin(), clamped_expect.end(), 0.0);
    engine->Run();
    engine->AccumulateExpectedFeatures(&clamped_expect);
    const double clamped_log_z = engine->LogPartitionEstimate();

    // E_{p(Y)}[h]: free pass.
    graph->UnclampAll();
    std::fill(free_expect.begin(), free_expect.end(), 0.0);
    engine->Run();
    engine->AccumulateExpectedFeatures(&free_expect);
    const double free_log_z = engine->LogPartitionEstimate();

    for (size_t k = 0; k < w; ++k) {
      gradient_base[k] = clamped_expect[k] - free_expect[k];
    }
    LearnerTrace trace =
        ApplyAscentStep(options_, iter, gradient_base,
                        clamped_log_z - free_log_z, anchor, &result.weights);
    trace.seconds = watch.ElapsedSeconds();
    result.trace.push_back(trace);
    JOCL_LOG(kDebug) << "learner iter " << iter << " objective "
                     << trace.objective << " grad max-norm "
                     << trace.gradient_max_norm;
    if (trace.gradient_max_norm < kGradientTolerance) {
      result.converged = true;
      break;
    }
  }
  graph->UnclampAll();
  return result;
}

}  // namespace jocl

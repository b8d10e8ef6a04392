#include "graph/inference.h"

#include <utility>

#include "graph/exact.h"
#include "graph/flat_lbp.h"

namespace jocl {

std::unique_ptr<InferenceEngine> CreateInferenceEngine(
    InferenceBackend backend, const FactorGraph* graph,
    const std::vector<double>* weights, LbpOptions options) {
  if (backend == InferenceBackend::kExact) {
    return std::make_unique<ExactEngine>(graph, weights, std::move(options));
  }
  return std::make_unique<FlatLbpEngine>(graph, weights, std::move(options));
}

}  // namespace jocl

#include "graph/inference.h"

#include <utility>

#include "graph/flat_lbp.h"

namespace jocl {

std::unique_ptr<InferenceEngine> CreateInferenceEngine(
    InferenceBackend /*backend*/, const FactorGraph* graph,
    const std::vector<double>* weights, LbpOptions options) {
  return std::make_unique<FlatLbpEngine>(graph, weights, std::move(options));
}

}  // namespace jocl

#ifndef JOCL_TESTS_SUPPORT_EXACT_H_
#define JOCL_TESTS_SUPPORT_EXACT_H_

#include <cstddef>
#include <vector>

#include "graph/inference.h"

namespace jocl {

/// \brief Exact inference by joint enumeration — O(prod cardinalities).
///
/// Test-support oracle, not part of libjocl. Only usable on tiny graphs;
/// exists so tests can verify LBP (exact on trees, close on small loopy
/// graphs) and the learner's gradients.
struct ExactResult {
  std::vector<std::vector<double>> marginals;
  double log_partition = 0.0;
  /// Expected features under the exact joint.
  std::vector<double> expected_features;
};

/// Computes exact marginals, log Z and expected features. Respects clamps.
ExactResult ExactInference(const FactorGraph& graph,
                           const std::vector<double>& weights);

/// \brief Exact MAP assignment by joint enumeration (tiny graphs only),
/// the result of ExactEngine::Decode. Respects clamps; deterministic
/// tie-break on the assignment order.
std::vector<size_t> ExactMap(const FactorGraph& graph,
                             const std::vector<double>& weights);

/// \brief The exact enumerator behind the InferenceEngine interface.
///
/// Run() computes exact marginals and expected features; Decode() returns
/// the exact MAP assignment (ExactMap). Drop-in ground truth for any
/// consumer of the interface, on graphs small enough to enumerate.
class ExactEngine : public InferenceEngine {
 public:
  /// \p graph and \p weights must outlive the engine. Only the
  /// diagnostics-shape fields of \p options are meaningful here.
  ExactEngine(const FactorGraph* graph, const std::vector<double>* weights,
              LbpOptions options = {});

  Status Validate() const override;

  LbpResult Run() override;

  const std::vector<double>& Marginal(VariableId id) const override {
    return exact_.marginals[id];
  }

  std::vector<double> FactorBelief(FactorId id) const override;

  void AccumulateExpectedFeatures(
      std::vector<double>* expectations) const override;

  /// The exact log Z of the enumerated joint (valid after Run()).
  double LogPartitionEstimate() const override {
    return exact_.log_partition;
  }

  std::vector<size_t> Decode() const override;

 private:
  const FactorGraph* graph_;
  const std::vector<double>* weights_;
  ExactResult exact_;
};

}  // namespace jocl

#endif  // JOCL_TESTS_SUPPORT_EXACT_H_

#include "graph/learner.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace jocl {

LearnerTrace ApplyAscentStep(const LearnerOptions& options, size_t iteration,
                             const std::vector<double>& gradient_base,
                             double log_likelihood,
                             const std::vector<double>& anchor,
                             std::vector<double>* weights) {
  double max_norm = 0.0;
  double penalty = 0.0;
  for (size_t k = 0; k < weights->size(); ++k) {
    const double deviation = (*weights)[k] - anchor[k];
    penalty += deviation * deviation;
    const double gradient = gradient_base[k] - options.l2 * deviation;
    (*weights)[k] += options.learning_rate * gradient;
    max_norm = std::max(max_norm, std::abs(gradient));
  }
  LearnerTrace trace;
  trace.iteration = iteration;
  trace.objective = log_likelihood - 0.5 * options.l2 * penalty;
  trace.gradient_max_norm = max_norm;
  return trace;
}

}  // namespace jocl

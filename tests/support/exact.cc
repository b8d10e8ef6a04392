#include "support/exact.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <string>

namespace jocl {

namespace {

// Row-major assignment index of factor f under the global `states`.
size_t AssignmentOf(const FactorGraph& graph, FactorId f,
                    const std::vector<size_t>& states) {
  size_t assignment = 0;
  for (size_t e = graph.scope_offset(f); e < graph.scope_offset(f + 1); ++e) {
    assignment += states[graph.scope_var(e)] * graph.slot_stride(e);
  }
  return assignment;
}

// Calls visit(states, log_score) for every joint assignment — clamped
// variables held at their state, the free ones advanced as a mixed-radix
// counter — where log_score is the assignment's unnormalized log
// probability.
template <typename Visit>
void ForEachAssignment(const FactorGraph& graph,
                       const std::vector<double>& weights, Visit visit) {
  const size_t nv = graph.variable_count();
  std::vector<size_t> states(nv, 0);
  std::vector<size_t> free_vars;
  for (VariableId v = 0; v < nv; ++v) {
    if (graph.IsClamped(v)) {
      states[v] = static_cast<size_t>(graph.clamped_state(v));
    } else {
      free_vars.push_back(v);
    }
  }
  for (;;) {
    double log_score = 0.0;
    for (FactorId f = 0; f < graph.factor_count(); ++f) {
      log_score +=
          graph.LogPotential(f, AssignmentOf(graph, f, states), weights);
    }
    visit(states, log_score);
    size_t k = 0;
    for (; k < free_vars.size(); ++k) {
      VariableId v = free_vars[k];
      if (++states[v] < graph.cardinality(v)) break;
      states[v] = 0;
    }
    if (k == free_vars.size()) return;
  }
}

}  // namespace

std::vector<size_t> ExactMap(const FactorGraph& graph,
                             const std::vector<double>& weights) {
  std::vector<size_t> best;
  double best_score = -std::numeric_limits<double>::infinity();
  ForEachAssignment(graph, weights,
                    [&](const std::vector<size_t>& states, double log_score) {
                      if (best.empty() || log_score > best_score) {
                        best_score = log_score;
                        best = states;
                      }
                    });
  return best;
}

ExactResult ExactInference(const FactorGraph& graph,
                           const std::vector<double>& weights) {
  ExactResult result;
  const size_t nv = graph.variable_count();
  result.marginals.resize(nv);
  for (VariableId v = 0; v < nv; ++v) {
    result.marginals[v].assign(graph.cardinality(v), 0.0);
  }
  result.expected_features.assign(graph.weight_count(), 0.0);

  // Enumerate the full joint (respecting clamps).
  std::vector<double> log_scores;
  std::vector<std::vector<size_t>> all_states;
  ForEachAssignment(graph, weights,
                    [&](const std::vector<size_t>& states, double log_score) {
                      log_scores.push_back(log_score);
                      all_states.push_back(states);
                    });

  result.log_partition = LogSumExp(log_scores);
  for (size_t i = 0; i < log_scores.size(); ++i) {
    double p = std::exp(log_scores[i] - result.log_partition);
    for (VariableId v = 0; v < nv; ++v) {
      result.marginals[v][all_states[i][v]] += p;
    }
    for (FactorId f = 0; f < graph.factor_count(); ++f) {
      graph.ForEachFeature(
          f, AssignmentOf(graph, f, all_states[i]),
          [&](WeightId weight, double value) {
            result.expected_features[weight] += p * value;
          });
    }
  }
  return result;
}

ExactEngine::ExactEngine(const FactorGraph* graph,
                         const std::vector<double>* weights,
                         LbpOptions options)
    : graph_(graph), weights_(weights) {
  (void)options;
}

Status ExactEngine::Validate() const {
  if (weights_ == nullptr) {
    return Status::InvalidArgument("no weight vector bound");
  }
  JOCL_RETURN_NOT_OK(graph_->Validate());
  if (weights_->size() < graph_->weight_count()) {
    return Status::FailedPrecondition(
        "weight vector holds " + std::to_string(weights_->size()) +
        " weights, graph references " +
        std::to_string(graph_->weight_count()));
  }
  return Status::OK();
}

LbpResult ExactEngine::Run() {
  exact_ = ExactInference(*graph_, *weights_);
  LbpResult result;
  result.marginals = exact_.marginals;
  result.iterations = 1;
  result.converged = true;
  result.final_residual = 0.0;
  return result;
}

std::vector<double> ExactEngine::FactorBelief(FactorId id) const {
  // Exact per-factor belief: marginalize the joint onto the factor's
  // assignments by one more enumeration pass.
  const FactorGraph& graph = *graph_;
  std::vector<double> log_belief(graph.AssignmentCount(id),
                                 -std::numeric_limits<double>::infinity());
  ForEachAssignment(
      graph, *weights_,
      [&](const std::vector<size_t>& states, double log_score) {
        double& cell = log_belief[AssignmentOf(graph, id, states)];
        if (cell == -std::numeric_limits<double>::infinity()) {
          cell = log_score;
        } else if (log_score > cell) {
          cell = log_score + std::log1p(std::exp(cell - log_score));
        } else {
          cell = cell + std::log1p(std::exp(log_score - cell));
        }
      });
  const double lse = LogSumExp(log_belief);
  std::vector<double> belief(log_belief.size(), 0.0);
  for (size_t a = 0; a < log_belief.size(); ++a) {
    belief[a] = std::exp(log_belief[a] - lse);
  }
  return belief;
}

void ExactEngine::AccumulateExpectedFeatures(
    std::vector<double>* expectations) const {
  assert(expectations->size() == exact_.expected_features.size());
  for (size_t k = 0; k < exact_.expected_features.size(); ++k) {
    (*expectations)[k] += exact_.expected_features[k];
  }
}

std::vector<size_t> ExactEngine::Decode() const {
  return ExactMap(*graph_, *weights_);
}

}  // namespace jocl

#include "graph/factor_graph.h"

#include <algorithm>
#include <limits>
#include <string>

#include "cluster/union_find.h"
#include "util/aligned.h"

namespace jocl {

namespace {

// `*product *= factor`, false when the result would overflow size_t.
bool MultiplyChecked(size_t factor, size_t* product) {
  return !__builtin_mul_overflow(*product, factor, product);
}

}  // namespace

VariableId FactorGraph::AddVariable(size_t cardinality) {
  assert(cardinality <= std::numeric_limits<uint32_t>::max());
  VariableId id = cardinality_.size();
  cardinality_.push_back(static_cast<uint32_t>(cardinality));
  clamped_state_.push_back(-1);
  var_lane_offset_.push_back(var_lane_offset_.back() +
                             RoundUpTo(cardinality, kLaneDoubles));
  return id;
}

Result<FactorId> FactorGraph::AddFactor(const std::vector<VariableId>& scope,
                                        const FeatureTable& features) {
  size_t expected = 1;
  for (VariableId v : scope) {
    if (v >= variable_count()) {
      return Status::InvalidArgument(
          "factor scope references unknown variable");
    }
    if (!MultiplyChecked(cardinality_[v], &expected)) {
      return Status::InvalidArgument(
          "factor scope's assignment count overflows size_t");
    }
  }
  if (features.assignment_count() != expected) {
    return Status::InvalidArgument(
        "feature table size does not match scope cardinality product");
  }
  const FactorId id = factor_count();

  // ---- scope -> edges, with row-major strides (last slot fastest) ----
  const size_t base = scope_var_.size();
  scope_var_.resize(base + scope.size());
  edge_factor_.resize(base + scope.size(), static_cast<uint32_t>(id));
  slot_stride_.resize(base + scope.size());
  size_t stride = 1;
  for (size_t slot = scope.size(); slot-- > 0;) {
    scope_var_[base + slot] = static_cast<uint32_t>(scope[slot]);
    slot_stride_[base + slot] = stride;
    stride *= cardinality_[scope[slot]];
  }
  size_t factor_lane_states = 0;
  for (VariableId v : scope) {
    const size_t lanes = RoundUpTo(cardinality_[v], kLaneDoubles);
    edge_lane_offset_.push_back(edge_lane_offset_.back() + lanes);
    factor_lane_states += lanes;
  }
  scope_offset_.push_back(scope_var_.size());
  assignment_offset_.push_back(assignment_offset_.back() + expected);
  max_arity_ = std::max(max_arity_, scope.size());
  max_factor_lane_states_ =
      std::max(max_factor_lane_states_, factor_lane_states);

  // ---- features, flattened into the shared pools ----
  factor_uniform_.push_back(features.is_uniform() ? 1 : 0);
  if (features.is_uniform()) {
    uniform_weight_.push_back(features.uniform_weight());
    uniform_offset_.push_back(uniform_pool_.size());
    uniform_pool_.insert(uniform_pool_.end(),
                         features.uniform_values().begin(),
                         features.uniform_values().end());
    entry_offset_.resize(entry_offset_.size() + expected, entry_pool_.size());
  } else {
    uniform_weight_.push_back(0);
    uniform_offset_.push_back(0);
    for (size_t a = 0; a < expected; ++a) {
      const std::vector<FeatureEntry>& entries = features.entries(a);
      entry_pool_.insert(entry_pool_.end(), entries.begin(), entries.end());
      entry_offset_.push_back(entry_pool_.size());
    }
  }
  return id;
}

Status FactorGraph::Clamp(VariableId id, size_t state) {
  if (id >= variable_count()) {
    return Status::InvalidArgument("clamp: unknown variable");
  }
  if (state >= cardinality_[id]) {
    return Status::InvalidArgument("clamp: state out of range");
  }
  clamped_state_[id] = static_cast<int64_t>(state);
  return Status::OK();
}

void FactorGraph::UnclampAll() {
  std::fill(clamped_state_.begin(), clamped_state_.end(), -1);
}

void FactorGraph::DecodeAssignment(FactorId f, size_t assignment,
                                   std::vector<size_t>* states) const {
  const size_t base = scope_offset_[f];
  states->resize(arity(f));
  // Row-major with the last scope variable fastest.
  for (size_t slot = states->size(); slot-- > 0;) {
    const size_t card = cardinality_[scope_var_[base + slot]];
    (*states)[slot] = assignment % card;
    assignment /= card;
  }
}

void FactorGraph::ComputeLogPotentials(const std::vector<double>& weights,
                                       std::vector<double>* out) const {
  out->assign(total_assignments(), 0.0);
  double* lp = out->data();
  for (FactorId f = 0; f < factor_count(); ++f) {
    const size_t base = assignment_offset_[f];
    const size_t count = assignment_offset_[f + 1] - base;
    if (factor_uniform_[f]) {
      const double w = weights[uniform_weight_[f]];
      const double* values = uniform_pool_.data() + uniform_offset_[f];
      for (size_t a = 0; a < count; ++a) lp[base + a] = w * values[a];
    } else {
      for (size_t a = 0; a < count; ++a) {
        double total = 0.0;
        for (size_t i = entry_offset_[base + a];
             i < entry_offset_[base + a + 1]; ++i) {
          total += weights[entry_pool_[i].weight] * entry_pool_[i].value;
        }
        lp[base + a] = total;
      }
    }
  }
}

Status FactorGraph::Validate() const {
  const size_t nv = variable_count();
  for (VariableId v = 0; v < nv; ++v) {
    if (cardinality_[v] == 0) {
      return Status::InvalidArgument("variable " + std::to_string(v) +
                                     " has cardinality 0");
    }
    if (clamped_state_[v] >= 0 &&
        static_cast<size_t>(clamped_state_[v]) >= cardinality_[v]) {
      return Status::FailedPrecondition(
          "variable " + std::to_string(v) + " clamped to state " +
          std::to_string(clamped_state_[v]) + " >= cardinality " +
          std::to_string(cardinality_[v]));
    }
  }
  for (FactorId f = 0; f < factor_count(); ++f) {
    size_t assignments = 1;
    for (size_t e = scope_offset_[f]; e < scope_offset_[f + 1]; ++e) {
      const VariableId v = scope_var_[e];
      if (v >= nv) {
        return Status::InvalidArgument(
            "factor " + std::to_string(f) + " references variable " +
            std::to_string(v) + " >= variable count " + std::to_string(nv));
      }
      if (!MultiplyChecked(cardinality_[v], &assignments)) {
        return Status::InvalidArgument("factor " + std::to_string(f) +
                                       " assignment count overflows size_t");
      }
    }
    if (AssignmentCount(f) != assignments) {
      return Status::InvalidArgument(
          "factor " + std::to_string(f) + " feature table covers " +
          std::to_string(AssignmentCount(f)) + " assignments, scope has " +
          std::to_string(assignments));
    }
    const size_t weight_count = weight_count_;
    auto check_weight = [&](WeightId weight) {
      if (weight < weight_count) return Status::OK();
      return Status::InvalidArgument(
          "factor " + std::to_string(f) + " references weight " +
          std::to_string(weight) + " >= weight count " +
          std::to_string(weight_count));
    };
    if (factor_uniform_[f]) {
      JOCL_RETURN_NOT_OK(check_weight(uniform_weight_[f]));
      continue;
    }
    for (size_t i = entry_offset_[assignment_offset_[f]];
         i < entry_offset_[assignment_offset_[f + 1]]; ++i) {
      JOCL_RETURN_NOT_OK(check_weight(entry_pool_[i].weight));
    }
  }
  return Status::OK();
}

std::vector<size_t> FactorGraphComponents(const FactorGraph& graph) {
  UnionFind uf(graph.variable_count());
  for (FactorId f = 0; f < graph.factor_count(); ++f) {
    const size_t base = graph.scope_offset(f);
    for (size_t e = base + 1; e < graph.scope_offset(f + 1); ++e) {
      uf.Union(graph.scope_var(base), graph.scope_var(e));
    }
  }
  return uf.Labels();
}

}  // namespace jocl

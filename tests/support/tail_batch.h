#ifndef JOCL_TESTS_SUPPORT_TAIL_BATCH_H_
#define JOCL_TESTS_SUPPORT_TAIL_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/problem.h"
#include "core/shard.h"

namespace jocl {

/// \brief Up to \p count triples of \p split that form a steady-state tail
/// batch, drawn the way the ingest benchmark draws its tail pool: no
/// triple is the representative (first mention) of any of its surfaces,
/// so retracting and re-adding it moves no other component; at most one
/// comes from each component; none comes from the largest component.
/// Components are scanned in first-appearance order, so the batch is
/// deterministic. Returns dataset triple ids, ascending.
inline std::vector<size_t> ChooseTailBatch(const Dataset& dataset,
                                           const SignalBundle& signals,
                                           const std::vector<size_t>& split,
                                           size_t count) {
  const JoclProblem full = BuildProblem(dataset, signals, split);
  std::vector<size_t> comp_of, weight;
  ComputeProblemComponents(full, &comp_of, &weight);
  const size_t largest = static_cast<size_t>(
      std::max_element(weight.begin(), weight.end()) - weight.begin());
  std::vector<bool> taken(weight.size(), false);
  std::vector<size_t> batch;
  for (size_t i = 0; i < full.triples.size() && batch.size() < count; ++i) {
    const size_t comp = comp_of[i];
    if (comp == largest || taken[comp]) continue;
    if (full.subject_rep[full.subject_of[i]] == i ||
        full.predicate_rep[full.predicate_of[i]] == i ||
        full.object_rep[full.object_of[i]] == i) {
      continue;
    }
    taken[comp] = true;
    batch.push_back(full.triples[i]);
  }
  return batch;
}

}  // namespace jocl

#endif  // JOCL_TESTS_SUPPORT_TAIL_BATCH_H_

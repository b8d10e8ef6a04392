#ifndef JOCL_BASELINES_RELATION_LINKING_H_
#define JOCL_BASELINES_RELATION_LINKING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace jocl {

/// All relation-linking baselines return a CKB relation id (or kNilId) per
/// RP mention (1 per triple of the subset).

/// \brief Falcon-style relation linking: morphology-normalized token match
/// against relation names/aliases, n-gram fallback.
std::vector<int64_t> FalconRelationLink(const Dataset& dataset,
                                        const std::vector<size_t>& subset,
                                        double min_similarity = 0.55);

/// \brief EARL-style relation linking: candidates re-ranked by how well the
/// relation connects the top entity candidates of the triple's NPs.
std::vector<int64_t> EarlRelationLink(const Dataset& dataset,
                                      const std::vector<size_t>& subset);

/// \brief KBPearl-style relation linking: the relation chosen by the joint
/// triple assignment (fact inclusion first, surface similarity second).
std::vector<int64_t> KbpearlRelationLink(const Dataset& dataset,
                                         const std::vector<size_t>& subset);

/// \brief Rematch-style: pure surface matching of the RP against relation
/// names and aliases with n-gram + Levenshtein blend.
std::vector<int64_t> RematchRelationLink(const Dataset& dataset,
                                         const std::vector<size_t>& subset,
                                         double min_similarity = 0.35);

}  // namespace jocl

#endif  // JOCL_BASELINES_RELATION_LINKING_H_

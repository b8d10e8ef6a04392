#ifndef JOCL_BASELINES_ENTITY_LINKING_H_
#define JOCL_BASELINES_ENTITY_LINKING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/signals.h"
#include "data/dataset.h"

namespace jocl {

/// All entity-linking baselines return a CKB entity id (or kNilId) per NP
/// mention (2 per triple of the subset, subject then object), comparable
/// against the gold entity of each mention.

/// \brief DBpedia-Spotlight-style: per-mention argmax of the anchor
/// popularity prior blended with surface similarity; abstains below a
/// confidence threshold.
std::vector<int64_t> SpotlightLink(const Dataset& dataset,
                                   const SignalBundle& signals,
                                   const std::vector<size_t>& subset,
                                   double confidence = 0.25);

/// \brief TagMe-style: a Wikipedia-anchor "spot" dictionary (surfaces with
/// at least `min_spot_count` anchor occurrences), a commonness prior with
/// aggressive low-commonness pruning (ε), and a one-triple collective
/// agreement vote. Spot pruning + ε are what make TagMe precise on short
/// text but low-recall on OIE triples (paper Table 3: 0.316 on ReVerb45K).
std::vector<int64_t> TagMeLink(const Dataset& dataset,
                               const std::vector<size_t>& subset,
                               double epsilon = 0.8,
                               int64_t min_spot_count = 500);

/// \brief Falcon-style: English-morphology-driven — exact match of the
/// normalized surface against the extended alias KG wins; otherwise the
/// n-gram-closest candidate above a tight threshold.
std::vector<int64_t> FalconLink(const Dataset& dataset,
                                const std::vector<size_t>& subset,
                                double min_similarity = 0.8);

/// \brief EARL-style: a GTSP over the candidate sets of one triple's
/// mentions, solved greedily over connection density (facts between the
/// chosen subject/object candidates).
std::vector<int64_t> EarlLink(const Dataset& dataset,
                              const std::vector<size_t>& subset);

/// \brief KBPearl-style: joint triple-level assignment maximizing
/// popularity + surface similarity + fact inclusion over the candidate
/// cross product.
std::vector<int64_t> KbpearlLink(const Dataset& dataset,
                                 const std::vector<size_t>& subset);

}  // namespace jocl

#endif  // JOCL_BASELINES_ENTITY_LINKING_H_

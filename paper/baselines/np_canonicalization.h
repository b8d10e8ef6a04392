#ifndef JOCL_BASELINES_NP_CANONICALIZATION_H_
#define JOCL_BASELINES_NP_CANONICALIZATION_H_

#include <cstddef>
#include <vector>

#include "baselines/np_common.h"
#include "core/signals.h"
#include "data/dataset.h"
#include "embedding/embedding_table.h"
#include "util/result.h"

namespace jocl {

/// All baselines return cluster labels per NP mention (2 per triple of the
/// subset, subject then object), directly comparable with
/// `Dataset::GoldNpLabels()` restricted to the same mentions.

/// \brief Morph Norm (Fader et al. 2011): NPs sharing a morphologically
/// normalized form are one group. High precision, poor recall (aliases and
/// acronyms never merge).
std::vector<size_t> MorphNormCanonicalize(const Dataset& dataset,
                                          const std::vector<size_t>& subset);

/// \brief Wikidata-Integrator-style: link each NP with an off-the-shelf
/// entity linker (popularity-prior argmax over the anchor index) and group
/// NPs that landed on the same entity; unlinked NPs stay singletons.
std::vector<size_t> WikidataIntegratorCanonicalize(
    const Dataset& dataset, const std::vector<size_t>& subset);

/// \brief Text Similarity (Galárraga et al. 2014): HAC over Jaro-Winkler
/// similarity of the surface strings.
std::vector<size_t> TextSimilarityCanonicalize(
    const Dataset& dataset, const std::vector<size_t>& subset,
    double threshold = 0.82);

/// \brief IDF Token Overlap (Galárraga et al. 2014): HAC over the IDF
/// token-overlap similarity.
std::vector<size_t> IdfTokenOverlapCanonicalize(
    const Dataset& dataset, const SignalBundle& signals,
    const std::vector<size_t>& subset, double threshold = 0.5);

/// \brief Attribute Overlap (Galárraga et al. 2014): Jaccard similarity of
/// the NPs' attribute sets (the normalized RPs they occur with).
std::vector<size_t> AttributeOverlapCanonicalize(
    const Dataset& dataset, const std::vector<size_t>& subset,
    double threshold = 0.35);

/// \brief The word vectors CESI learns: word2vec over the OKB triples
/// only — what a system without access to the source text can learn —
/// with the options `BuildSignals` derives from \p options.
Result<EmbeddingTable> TrainTripleEmbeddings(const Dataset& dataset,
                                             const SignalOptions& options = {});

/// \brief CESI-style (Vashishth et al. 2018): HAC over learned phrase
/// embeddings (\p triple_embeddings, from `TrainTripleEmbeddings`) blended
/// with side information (PPDB short-circuit, IDF token overlap).
std::vector<size_t> CesiCanonicalize(const Dataset& dataset,
                                     const SignalBundle& signals,
                                     const EmbeddingTable& triple_embeddings,
                                     const std::vector<size_t>& subset,
                                     double threshold = 0.64);

/// \brief SIST-style (Lin & Chen 2019): CESI's blend plus side information
/// from the source text, approximated by candidate-entity agreement from
/// the anchor index (SIST's candidate/type side info).
std::vector<size_t> SistCanonicalize(const Dataset& dataset,
                                     const SignalBundle& signals,
                                     const std::vector<size_t>& subset,
                                     double threshold = 0.62);

}  // namespace jocl

#endif  // JOCL_BASELINES_NP_CANONICALIZATION_H_

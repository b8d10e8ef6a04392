#ifndef JOCL_CORE_SIGNALS_H_
#define JOCL_CORE_SIGNALS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "embedding/embedding_table.h"
#include "embedding/word2vec.h"
#include "sideinfo/amie_miner.h"
#include "sideinfo/kbp_mapper.h"
#include "text/similarity.h"
#include "util/result.h"

namespace jocl {

/// \brief Options controlling signal construction.
struct SignalOptions {
  /// Word2vec epochs for the embedding signal (the dimension is
  /// Word2VecOptions' default).
  size_t embedding_epochs = 5;
  uint64_t seed = 42;
};

/// \brief The word2vec hyper-parameters `BuildSignals` trains with: one
/// derivation, so every table trained from \p options (the paper
/// baselines' too) uses the same dimension, epochs and seed.
Word2VecOptions EmbeddingOptions(const SignalOptions& options);

/// \brief Everything the signal feature functions of §3.1–3.2 need,
/// precomputed once per data set.
///
/// No gold test labels flow in here: embeddings and AMIE are unsupervised
/// over the raw triples, PPDB comes from the (noisy) resource shipped with
/// the data set, and KBP is trained on the validation split only.
class SignalBundle {
 public:
  /// IDF statistics over all NPs in the OKB (for Sim_idf on NPs).
  IdfTable np_idf;
  /// IDF statistics over all RPs.
  IdfTable rp_idf;
  /// Word embeddings trained on triples + synthetic source sentences
  /// (stands in for the paper's fastText Common-Crawl vectors).
  EmbeddingTable embeddings{0};
  /// PPDB-style paraphrase clusters (borrowed from the data set).
  const ParaphraseStore* ppdb = nullptr;
  /// Mined Horn rules between RPs.
  AmieMiner amie;
  /// KBP-style RP -> relation mapper (validation-trained).
  KbpMapper kbp;

  // --- the paper's similarity signals -------------------------------------

  /// `Sim_idf` between two NPs (RPs query `rp_idf` directly).
  double NpIdf(std::string_view a, std::string_view b) const {
    return np_idf.Similarity(a, b);
  }
  /// `Sim_emb`: cosine of averaged word vectors, clamped to [0, 1].
  double Emb(std::string_view a, std::string_view b) const {
    return embeddings.PhraseSimilarity(a, b);
  }
  /// `Sim_PPDB` with absence-is-neutral semantics: 1 when both phrases
  /// share a cluster representative, 0 when BOTH are known to PPDB but
  /// disagree, 0.5 when either phrase is outside PPDB's partial coverage
  /// (no evidence is not evidence of difference).
  double Ppdb(std::string_view a, std::string_view b) const {
    if (ppdb == nullptr) return 0.5;
    auto rep_a = ppdb->Representative(a);
    if (!rep_a.has_value()) return 0.5;
    auto rep_b = ppdb->Representative(b);
    if (!rep_b.has_value()) return 0.5;
    return *rep_a == *rep_b ? 1.0 : 0.0;
  }
  /// `Sim_AMIE` with absence-is-neutral semantics: 0.5 unless both RPs had
  /// enough argument-pair support for rule mining to say anything.
  double Amie(std::string_view a, std::string_view b) const {
    if (amie.Similarity(a, b) > 0.5) return 1.0;  // rule or same norm form
    if (!amie.HasEvidence(a) || !amie.HasEvidence(b)) return 0.5;
    return 0.0;
  }
  /// `Sim_KBP` with absence-is-neutral semantics: 0.5 when either RP is
  /// unclassifiable (the mapper abstains), else same-category indicator.
  double Kbp(std::string_view a, std::string_view b) const {
    RelationId ra = kbp.Classify(a);
    if (ra == kNilId) return 0.5;
    RelationId rb = kbp.Classify(b);
    if (rb == kNilId) return 0.5;
    return ra == rb ? 1.0 : 0.0;
  }
  // The `Ngram` / `LD` string similarities of relation linking (§3.2.4)
  // need no side information: `SimilarityQuery` (text/similarity.h)
  // computes them.
};

/// \brief Builds the full bundle for a data set: fits IDF tables, trains
/// word2vec on the triple corpus + aux sentences, mines AMIE rules, trains
/// the KBP mapper on the validation split.
Result<SignalBundle> BuildSignals(const Dataset& dataset,
                                  const SignalOptions& options = {});

}  // namespace jocl

#endif  // JOCL_CORE_SIGNALS_H_

#include "core/signals.h"

#include "embedding/corpus.h"
#include "util/logging.h"

namespace jocl {

Word2VecOptions EmbeddingOptions(const SignalOptions& options) {
  Word2VecOptions w2v;
  w2v.epochs = options.embedding_epochs;
  w2v.seed = options.seed;
  return w2v;
}

Result<SignalBundle> BuildSignals(const Dataset& dataset,
                                  const SignalOptions& options) {
  SignalBundle bundle;

  // IDF over the phrase population (paper: frequency of words over all NPs
  // of the OIE triples; analogously for RPs).
  for (const auto& triple : dataset.okb.triples()) {
    bundle.np_idf.AddPhrase(triple.subject);
    bundle.np_idf.AddPhrase(triple.object);
    bundle.rp_idf.AddPhrase(triple.predicate);
  }

  // Embeddings over triples + the synthetic source text.
  std::vector<std::vector<std::string>> corpus =
      BuildTripleCorpus(dataset.okb);
  AppendSentences(dataset.aux_sentences, &corpus);
  Result<EmbeddingTable> trained =
      Word2Vec(EmbeddingOptions(options)).Train(corpus);
  if (!trained.ok()) return trained.status();
  bundle.embeddings = trained.MoveValueOrDie();

  // PPDB is a property of the data set (the paper uses the released PPDB
  // resource; our generator ships a noisy equivalent).
  bundle.ppdb = &dataset.ppdb;

  // AMIE over morph-normalized triples, at AmieOptions' paper-style
  // support/confidence thresholds.
  bundle.amie.Mine(dataset.okb);

  // KBP mapper: labeled RP -> relation pairs from the validation split.
  std::vector<KbpExample> examples;
  for (size_t t : dataset.validation_triples) {
    if (dataset.gold_relation[t] == kNilId) continue;
    examples.push_back(
        KbpExample{dataset.okb.triple(t).predicate, dataset.gold_relation[t]});
  }
  bundle.kbp.Train(examples);

  JOCL_LOG(kDebug) << "signals: vocab=" << bundle.embeddings.size()
                   << " amie_rules=" << bundle.amie.rules().size()
                   << " kbp_examples=" << examples.size();
  return bundle;
}

}  // namespace jocl

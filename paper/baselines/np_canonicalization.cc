#include "baselines/np_canonicalization.h"

#include <unordered_map>
#include <unordered_set>

#include "cluster/hac.h"
#include "cluster/union_find.h"
#include "core/signal_cache.h"
#include "embedding/corpus.h"
#include "embedding/word2vec.h"
#include "text/morph_normalizer.h"
#include "text/similarity.h"

namespace jocl {
namespace {

// Clusters surfaces with HAC over an index-based similarity and maps back
// to mentions.
std::vector<size_t> HacOverSurfaceIds(
    const NpSurfaceView& view, double threshold, Linkage linkage,
    const std::function<double(size_t, size_t)>& similarity) {
  HacOptions options;
  options.threshold = threshold;
  options.linkage = linkage;
  Hac hac(options);
  return SurfaceToMentionLabels(
      view.mention_surface, hac.Cluster(view.surfaces.size(), similarity));
}

// Same, over surface strings.
std::vector<size_t> HacOverSurfaces(
    const NpSurfaceView& view, double threshold, Linkage linkage,
    const std::function<double(const std::string&, const std::string&)>&
        similarity) {
  return HacOverSurfaceIds(view, threshold, linkage,
                           [&](size_t i, size_t j) {
                             return similarity(view.surfaces[i],
                                               view.surfaces[j]);
                           });
}

}  // namespace

std::vector<size_t> MorphNormCanonicalize(const Dataset& dataset,
                                          const std::vector<size_t>& subset) {
  NpSurfaceView view = BuildNpSurfaceView(dataset, subset);
  MorphNormalizer normalizer;
  std::unordered_map<std::string, size_t> groups;
  std::vector<size_t> surface_labels(view.surfaces.size());
  for (size_t s = 0; s < view.surfaces.size(); ++s) {
    std::string norm = normalizer.Normalize(view.surfaces[s]);
    auto [it, inserted] = groups.emplace(norm, groups.size());
    surface_labels[s] = it->second;
  }
  return SurfaceToMentionLabels(view.mention_surface, surface_labels);
}

std::vector<size_t> WikidataIntegratorCanonicalize(
    const Dataset& dataset, const std::vector<size_t>& subset) {
  NpSurfaceView view = BuildNpSurfaceView(dataset, subset);
  std::vector<size_t> surface_labels(view.surfaces.size());
  std::unordered_map<int64_t, size_t> entity_groups;
  size_t next_label = 0;
  for (size_t s = 0; s < view.surfaces.size(); ++s) {
    // A dictionary-based linker resolves against the label/alias tables
    // only — no fuzzy search (that generosity is not in the real tool).
    auto candidates = dataset.ckb.ExactAnchorCandidates(view.surfaces[s], 1);
    if (candidates.empty()) {
      surface_labels[s] = next_label++;  // unlinked -> singleton
      continue;
    }
    auto [it, inserted] =
        entity_groups.emplace(candidates.front().id, next_label);
    if (inserted) ++next_label;
    surface_labels[s] = it->second;
  }
  return SurfaceToMentionLabels(view.mention_surface, surface_labels);
}

std::vector<size_t> TextSimilarityCanonicalize(
    const Dataset& dataset, const std::vector<size_t>& subset,
    double threshold) {
  NpSurfaceView view = BuildNpSurfaceView(dataset, subset);
  return HacOverSurfaces(view, threshold, Linkage::kAverage,
                         [](const std::string& a, const std::string& b) {
                           return JaroWinklerSimilarity(a, b);
                         });
}

std::vector<size_t> IdfTokenOverlapCanonicalize(
    const Dataset& dataset, const SignalBundle& signals,
    const std::vector<size_t>& subset, double threshold) {
  NpSurfaceView view = BuildNpSurfaceView(dataset, subset);
  return HacOverSurfaces(view, threshold, Linkage::kAverage,
                         [&](const std::string& a, const std::string& b) {
                           return signals.np_idf.Similarity(a, b);
                         });
}

std::vector<size_t> AttributeOverlapCanonicalize(
    const Dataset& dataset, const std::vector<size_t>& subset,
    double threshold) {
  NpSurfaceView view = BuildNpSurfaceView(dataset, subset);
  // Attribute set of an NP surface: the normalized RPs it occurs with.
  MorphNormalizer normalizer;
  std::vector<std::unordered_set<std::string>> attributes(
      view.surfaces.size());
  for (size_t local = 0; local < view.triples.size(); ++local) {
    const OieTriple& triple = dataset.okb.triple(view.triples[local]);
    std::string rp = normalizer.Normalize(triple.predicate);
    attributes[view.mention_surface[local * 2]].insert(rp);
    attributes[view.mention_surface[local * 2 + 1]].insert("inv " + rp);
  }
  std::unordered_map<std::string, size_t> surface_index;
  for (size_t s = 0; s < view.surfaces.size(); ++s) {
    surface_index.emplace(view.surfaces[s], s);
  }
  return HacOverSurfaces(
      view, threshold, Linkage::kAverage,
      [&](const std::string& a, const std::string& b) {
        return JaccardSimilarity(attributes[surface_index.at(a)],
                                 attributes[surface_index.at(b)]);
      });
}

Result<EmbeddingTable> TrainTripleEmbeddings(const Dataset& dataset,
                                             const SignalOptions& options) {
  return Word2Vec(EmbeddingOptions(options))
      .Train(BuildTripleCorpus(dataset.okb));
}

std::vector<size_t> CesiCanonicalize(const Dataset& dataset,
                                     const SignalBundle& signals,
                                     const EmbeddingTable& triple_embeddings,
                                     const std::vector<size_t>& subset,
                                     double threshold) {
  NpSurfaceView view = BuildNpSurfaceView(dataset, subset);
  // CESI's own signals: the triple-only word vectors and PPDB. HAC
  // evaluates O(n^2) pairs; the cache reduces each to a dot product
  // (surface ids are positional: view.surfaces is distinct).
  SignalBundle cesi;
  cesi.embeddings = triple_embeddings;
  cesi.ppdb = signals.ppdb;
  SignalCache cache = SignalCache::ForPhrases(view.surfaces, cesi);
  return HacOverSurfaceIds(
      view, threshold, Linkage::kAverage, [&](size_t i, size_t j) {
        // PPDB is a hard side-information short-circuit in CESI's
        // embedding objective; otherwise blend embeddings with IDF
        // overlap. CESI's embeddings are trained on the OKB triples only —
        // it has no access to the source text (that is SIST's edge).
        if (cache.Ppdb(i, j) > 0.5) return 1.0;
        return 0.6 * cache.Emb(i, j) +
               0.4 * signals.np_idf.Similarity(view.surfaces[i],
                                               view.surfaces[j]);
      });
}

std::vector<size_t> SistCanonicalize(const Dataset& dataset,
                                     const SignalBundle& signals,
                                     const std::vector<size_t>& subset,
                                     double threshold) {
  NpSurfaceView view = BuildNpSurfaceView(dataset, subset);
  // SIST's source-text side info: candidate entities of each NP. Agreement
  // on the top candidate boosts the pair proportionally to how confident
  // both readings are (an unconfident agreement must not force a merge).
  std::vector<int64_t> top_candidate(view.surfaces.size(), kNilId);
  std::vector<double> top_confidence(view.surfaces.size(), 0.0);
  for (size_t s = 0; s < view.surfaces.size(); ++s) {
    auto candidates = dataset.ckb.EntityCandidates(view.surfaces[s], 1);
    if (!candidates.empty()) {
      top_candidate[s] = candidates.front().id;
      top_confidence[s] = candidates.front().popularity;
    }
  }
  SignalCache cache = SignalCache::ForPhrases(view.surfaces, signals);
  return HacOverSurfaceIds(
      view, threshold, Linkage::kAverage, [&](size_t ia, size_t ib) {
        if (cache.Ppdb(ia, ib) > 0.5) return 1.0;
        double base = 0.6 * cache.Emb(ia, ib) +
                      0.4 * signals.np_idf.Similarity(view.surfaces[ia],
                                                      view.surfaces[ib]);
        if (top_candidate[ia] != kNilId &&
            top_candidate[ia] == top_candidate[ib]) {
          double agreement = std::min(top_confidence[ia], top_confidence[ib]);
          // Agreement merges only when confident AND the pair is at least
          // weakly plausible on its own (blocks confidently-wrong shared
          // readings between unrelated phrases).
          if (agreement >= 0.65 && base >= 0.33) {
            base = std::max(base, 0.62 + 0.38 * agreement);
          }
        }
        return base;
      });
}

}  // namespace jocl

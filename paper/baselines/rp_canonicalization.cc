#include "baselines/rp_canonicalization.h"

#include <unordered_map>
#include <unordered_set>

#include "cluster/hac.h"
#include "cluster/union_find.h"
#include "core/signal_cache.h"
#include "text/morph_normalizer.h"

namespace jocl {

std::vector<size_t> AmieCanonicalize(const Dataset& dataset,
                                     const SignalBundle& signals,
                                     const std::vector<size_t>& subset) {
  RpSurfaceView view = BuildRpSurfaceView(dataset, subset);
  // The cache morph-normalizes each RP once; the O(n^2) loop then skips
  // re-normalization entirely (surface ids are positional).
  SignalCache cache = SignalCache::ForPhrases(view.surfaces, signals);
  UnionFind uf(view.surfaces.size());
  for (size_t i = 0; i < view.surfaces.size(); ++i) {
    for (size_t j = i + 1; j < view.surfaces.size(); ++j) {
      if (cache.Amie(i, j) > 0.5) uf.Union(i, j);
    }
  }
  return SurfaceToMentionLabels(view.mention_surface, uf.Labels());
}

std::vector<size_t> PattyCanonicalize(const Dataset& dataset,
                                      const std::vector<size_t>& subset,
                                      size_t min_shared_pairs) {
  RpSurfaceView view = BuildRpSurfaceView(dataset, subset);
  MorphNormalizer normalizer;
  UnionFind uf(view.surfaces.size());

  // Synset membership: equal after morphological normalization.
  std::unordered_map<std::string, size_t> norm_first;
  for (size_t s = 0; s < view.surfaces.size(); ++s) {
    std::string norm = normalizer.Normalize(view.surfaces[s]);
    auto [it, inserted] = norm_first.emplace(norm, s);
    if (!inserted) uf.Union(it->second, s);
  }

  // SOL-pattern support sets: normalized (subject, object) pairs per RP.
  std::vector<std::unordered_set<std::string>> support(view.surfaces.size());
  for (size_t local = 0; local < view.triples.size(); ++local) {
    const OieTriple& triple = dataset.okb.triple(view.triples[local]);
    std::string key = normalizer.Normalize(triple.subject) + "\x1f" +
                      normalizer.Normalize(triple.object);
    support[view.mention_surface[local]].insert(key);
  }
  // Invert: argument pair -> RPs; merge RPs sharing enough pairs.
  std::unordered_map<std::string, std::vector<size_t>> by_pair;
  for (size_t s = 0; s < view.surfaces.size(); ++s) {
    for (const auto& key : support[s]) by_pair[key].push_back(s);
  }
  std::unordered_map<uint64_t, size_t> shared_counts;
  for (const auto& [key, members] : by_pair) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        uint64_t pk = (static_cast<uint64_t>(members[i]) << 32) | members[j];
        if (++shared_counts[pk] >= min_shared_pairs) {
          uf.Union(members[i], members[j]);
        }
      }
    }
  }
  return SurfaceToMentionLabels(view.mention_surface, uf.Labels());
}

std::vector<size_t> SistRpCanonicalize(const Dataset& dataset,
                                       const SignalBundle& signals,
                                       const std::vector<size_t>& subset,
                                       double threshold) {
  RpSurfaceView view = BuildRpSurfaceView(dataset, subset);
  SignalCache cache = SignalCache::ForPhrases(view.surfaces, signals);
  HacOptions options;
  options.threshold = threshold;
  options.linkage = Linkage::kAverage;
  Hac hac(options);
  std::vector<size_t> labels =
      hac.Cluster(view.surfaces.size(), [&](size_t i, size_t j) {
        if (cache.Ppdb(i, j) > 0.5) return 1.0;
        if (cache.Kbp(i, j) > 0.5) return 1.0;
        return 0.5 * cache.Emb(i, j) +
               0.5 * signals.rp_idf.Similarity(view.surfaces[i],
                                               view.surfaces[j]);
      });
  return SurfaceToMentionLabels(view.mention_surface, labels);
}

}  // namespace jocl

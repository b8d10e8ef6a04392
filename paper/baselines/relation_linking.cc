#include "baselines/relation_linking.h"

#include <algorithm>

#include "baselines/np_common.h"
#include "text/morph_normalizer.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace jocl {
namespace {

constexpr size_t kRelationFanout = 5;
constexpr size_t kEntityFanout = 4;

}  // namespace

std::vector<int64_t> FalconRelationLink(const Dataset& dataset,
                                        const std::vector<size_t>& subset,
                                        double min_similarity) {
  RpSurfaceView view = BuildRpSurfaceView(dataset, subset);
  MorphNormalizer normalizer;
  std::vector<int64_t> surface_link(view.surfaces.size(), kNilId);
  for (size_t s = 0; s < view.surfaces.size(); ++s) {
    const std::string& surface = view.surfaces[s];
    std::string normalized = normalizer.Normalize(surface);
    auto candidates = dataset.ckb.RelationCandidates(surface, kRelationFanout);
    double best = min_similarity;
    for (const auto& candidate : candidates) {
      // Morphological token match against the relation's aliases.
      double score = candidate.score;
      for (const auto& alias : dataset.ckb.RelationAliases(candidate.id)) {
        if (normalizer.Normalize(alias) == normalized) score = 1.0;
      }
      if (score > best) {
        best = score;
        surface_link[s] = candidate.id;
      }
    }
  }
  std::vector<int64_t> links(view.mention_surface.size());
  for (size_t m = 0; m < links.size(); ++m) {
    links[m] = surface_link[view.mention_surface[m]];
  }
  return links;
}

std::vector<int64_t> EarlRelationLink(const Dataset& dataset,
                                      const std::vector<size_t>& subset) {
  RpSurfaceView view = BuildRpSurfaceView(dataset, subset);
  std::vector<int64_t> links(view.mention_surface.size(), kNilId);
  for (size_t local = 0; local < view.triples.size(); ++local) {
    const OieTriple& triple = dataset.okb.triple(view.triples[local]);
    auto r_cands =
        dataset.ckb.RelationCandidates(triple.predicate, kRelationFanout);
    auto s_cands = dataset.ckb.EntityCandidates(triple.subject, kEntityFanout);
    auto o_cands = dataset.ckb.EntityCandidates(triple.object, kEntityFanout);
    double best = 0.0;
    for (const auto& rc : r_cands) {
      double density = 0.0;
      for (const auto& sc : s_cands) {
        for (const auto& oc : o_cands) {
          if (dataset.ckb.HasFact(sc.id, rc.id, oc.id)) density += 1.0;
        }
      }
      double score = density + 0.2 * rc.score;
      if (score > best) {
        best = score;
        links[local] = rc.id;
      }
    }
  }
  return links;
}

std::vector<int64_t> KbpearlRelationLink(const Dataset& dataset,
                                         const std::vector<size_t>& subset) {
  RpSurfaceView view = BuildRpSurfaceView(dataset, subset);
  std::vector<int64_t> links(view.mention_surface.size(), kNilId);
  for (size_t local = 0; local < view.triples.size(); ++local) {
    const OieTriple& triple = dataset.okb.triple(view.triples[local]);
    auto r_cands =
        dataset.ckb.RelationCandidates(triple.predicate, kRelationFanout);
    auto s_cands = dataset.ckb.EntityCandidates(triple.subject, kEntityFanout);
    auto o_cands = dataset.ckb.EntityCandidates(triple.object, kEntityFanout);
    double best = 0.25;  // abstain threshold
    for (const auto& rc : r_cands) {
      double score = 0.5 * rc.score;
      for (const auto& sc : s_cands) {
        for (const auto& oc : o_cands) {
          if (dataset.ckb.HasFact(sc.id, rc.id, oc.id)) {
            score += 0.5 * (sc.popularity + oc.popularity) + 0.5;
          }
        }
      }
      if (score > best) {
        best = score;
        links[local] = rc.id;
      }
    }
  }
  return links;
}

std::vector<int64_t> RematchRelationLink(const Dataset& dataset,
                                         const std::vector<size_t>& subset,
                                         double min_similarity) {
  RpSurfaceView view = BuildRpSurfaceView(dataset, subset);
  std::vector<int64_t> surface_link(view.surfaces.size(), kNilId);
  for (size_t s = 0; s < view.surfaces.size(); ++s) {
    const std::string& surface = view.surfaces[s];
    auto candidates = dataset.ckb.RelationCandidates(surface, kRelationFanout);
    SimilarityQuery query(surface);
    double best = min_similarity;
    for (const auto& candidate : candidates) {
      const std::string& name = dataset.ckb.relation(candidate.id).name;
      double score = 0.5 * query.Ngram(name) + 0.5 * query.Levenshtein(name);
      for (const auto& alias : dataset.ckb.RelationAliases(candidate.id)) {
        score = std::max(score, 0.5 * query.Ngram(alias) +
                                    0.5 * query.Levenshtein(alias));
      }
      if (score > best) {
        best = score;
        surface_link[s] = candidate.id;
      }
    }
  }
  std::vector<int64_t> links(view.mention_surface.size());
  for (size_t m = 0; m < links.size(); ++m) {
    links[m] = surface_link[view.mention_surface[m]];
  }
  return links;
}

}  // namespace jocl

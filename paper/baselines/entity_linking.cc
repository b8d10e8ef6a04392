#include "baselines/entity_linking.h"

#include <algorithm>

#include "baselines/np_common.h"
#include "core/signal_cache.h"
#include "text/similarity.h"

namespace jocl {
namespace {

constexpr size_t kCandidateFanout = 6;

// Shared per-surface candidate cache for one baseline run.
struct CandidateCache {
  NpSurfaceView view;
  std::vector<std::vector<EntityCandidate>> candidates;

  CandidateCache(const Dataset& dataset, const std::vector<size_t>& subset) {
    view = BuildNpSurfaceView(dataset, subset);
    candidates.reserve(view.surfaces.size());
    for (const auto& surface : view.surfaces) {
      candidates.push_back(
          dataset.ckb.EntityCandidates(surface, kCandidateFanout));
    }
  }
};

}  // namespace

std::vector<int64_t> SpotlightLink(const Dataset& dataset,
                                   const SignalBundle& signals,
                                   const std::vector<size_t>& subset,
                                   double confidence) {
  CandidateCache cache(dataset, subset);
  // Per-surface and per-candidate-name phrase vectors are computed once
  // (surface s gets id s; candidate names registered after, deduplicated).
  SignalCache sig;
  for (const auto& surface : cache.view.surfaces) sig.Add(surface);
  std::vector<std::vector<size_t>> name_ids(cache.view.surfaces.size());
  for (size_t s = 0; s < cache.view.surfaces.size(); ++s) {
    for (const auto& candidate : cache.candidates[s]) {
      name_ids[s].push_back(sig.Add(dataset.ckb.entity(candidate.id).name));
    }
  }
  sig.Finalize(signals);
  std::vector<int64_t> surface_link(cache.view.surfaces.size(), kNilId);
  for (size_t s = 0; s < cache.view.surfaces.size(); ++s) {
    double best_score = confidence;
    for (size_t c = 0; c < cache.candidates[s].size(); ++c) {
      const auto& candidate = cache.candidates[s][c];
      double score = 0.7 * candidate.popularity +
                     0.3 * sig.Emb(s, name_ids[s][c]);
      if (score > best_score) {
        best_score = score;
        surface_link[s] = candidate.id;
      }
    }
  }
  std::vector<int64_t> links(cache.view.mention_surface.size());
  for (size_t m = 0; m < links.size(); ++m) {
    links[m] = surface_link[cache.view.mention_surface[m]];
  }
  return links;
}

std::vector<int64_t> TagMeLink(const Dataset& dataset,
                               const std::vector<size_t>& subset,
                               double epsilon, int64_t min_spot_count) {
  CandidateCache cache(dataset, subset);
  // Spot filter + commonness pruning: only frequent anchor surfaces are
  // "spots"; candidates below ε of the spot's anchor mass are discarded. A
  // surface with no surviving candidate is NIL.
  std::vector<int64_t> surface_link(cache.view.surfaces.size(), kNilId);
  for (size_t s = 0; s < cache.view.surfaces.size(); ++s) {
    if (dataset.ckb.AnchorCount(cache.view.surfaces[s]) < min_spot_count) {
      continue;  // not in the spot dictionary
    }
    double best = epsilon;
    for (const auto& candidate : cache.candidates[s]) {
      if (candidate.popularity > best) {
        best = candidate.popularity;
        surface_link[s] = candidate.id;
      }
    }
  }
  // One-triple "collective agreement": a pruned mention is rescued only
  // when exactly one candidate pair of the triple is connected by a CKB
  // fact — TagMe's coherence vote needs an unambiguous signal.
  std::vector<int64_t> links(cache.view.mention_surface.size());
  for (size_t local = 0; local < cache.view.triples.size(); ++local) {
    size_t s_surf = cache.view.mention_surface[local * 2];
    size_t o_surf = cache.view.mention_surface[local * 2 + 1];
    int64_t s_link = surface_link[s_surf];
    int64_t o_link = surface_link[o_surf];
    if (s_link == kNilId || o_link == kNilId) {
      int related_pairs = 0;
      int64_t rescue_s = kNilId;
      int64_t rescue_o = kNilId;
      for (const auto& sc : cache.candidates[s_surf]) {
        for (const auto& oc : cache.candidates[o_surf]) {
          for (const auto& fact : dataset.ckb.FactsInvolving(sc.id)) {
            if (fact.subject == oc.id || fact.object == oc.id) {
              ++related_pairs;
              rescue_s = sc.id;
              rescue_o = oc.id;
              break;
            }
          }
        }
      }
      if (related_pairs == 1) {
        if (s_link == kNilId) s_link = rescue_s;
        if (o_link == kNilId) o_link = rescue_o;
      }
    }
    links[local * 2] = s_link;
    links[local * 2 + 1] = o_link;
  }
  return links;
}

std::vector<int64_t> FalconLink(const Dataset& dataset,
                                const std::vector<size_t>& subset,
                                double min_similarity) {
  CandidateCache cache(dataset, subset);
  std::vector<int64_t> surface_link(cache.view.surfaces.size(), kNilId);
  for (size_t s = 0; s < cache.view.surfaces.size(); ++s) {
    const auto& surface = cache.view.surfaces[s];
    // Morphological exact match against the extended KG (canonical names).
    EntityId exact = dataset.ckb.FindEntityByName(surface);
    if (exact != kNilId) {
      surface_link[s] = exact;
      continue;
    }
    SimilarityQuery query(surface);
    double best = min_similarity;
    for (const auto& candidate : cache.candidates[s]) {
      double sim = query.Ngram(dataset.ckb.entity(candidate.id).name);
      if (sim > best) {
        best = sim;
        surface_link[s] = candidate.id;
      }
    }
  }
  std::vector<int64_t> links(cache.view.mention_surface.size());
  for (size_t m = 0; m < links.size(); ++m) {
    links[m] = surface_link[cache.view.mention_surface[m]];
  }
  return links;
}

std::vector<int64_t> EarlLink(const Dataset& dataset,
                              const std::vector<size_t>& subset) {
  // EARL generates candidates by label search (no Wikipedia-anchor
  // statistics), then solves a GTSP over the triple: the (subject, object)
  // candidate pair with the highest connection density through the
  // triple's candidate relations wins; ties are broken by label
  // similarity. Both choices are faithful to the original and are exactly
  // why it underperforms popularity-aware linkers on alias-heavy OIE data.
  NpSurfaceView view = BuildNpSurfaceView(dataset, subset);
  std::vector<std::vector<EntityCandidate>> label_candidates;
  label_candidates.reserve(view.surfaces.size());
  for (const auto& surface : view.surfaces) {
    label_candidates.push_back(
        dataset.ckb.LabelCandidates(surface, kCandidateFanout));
  }
  std::vector<int64_t> links(view.mention_surface.size(), kNilId);
  for (size_t local = 0; local < view.triples.size(); ++local) {
    size_t s_surf = view.mention_surface[local * 2];
    size_t o_surf = view.mention_surface[local * 2 + 1];
    const auto& s_cands = label_candidates[s_surf];
    const auto& o_cands = label_candidates[o_surf];
    auto r_cands = dataset.ckb.RelationCandidates(
        dataset.okb.triple(view.triples[local]).predicate, 4);
    auto relation_matches = [&](RelationId relation) {
      for (const auto& rc : r_cands) {
        if (rc.id == relation) return true;
      }
      return false;
    };
    double best = -1.0;
    int64_t best_s = kNilId;
    int64_t best_o = kNilId;
    for (const auto& sc : s_cands) {
      for (const auto& oc : o_cands) {
        double density = 0.0;
        for (const auto& fact : dataset.ckb.FactsInvolving(sc.id)) {
          if ((fact.subject == oc.id || fact.object == oc.id) &&
              relation_matches(fact.relation)) {
            density += 1.0;
          }
        }
        double label_sim =
            NgramSimilarity(view.surfaces[s_surf],
                            dataset.ckb.entity(sc.id).name) +
            NgramSimilarity(view.surfaces[o_surf],
                            dataset.ckb.entity(oc.id).name);
        double score = density + 0.1 * label_sim;
        if (score > best) {
          best = score;
          best_s = sc.id;
          best_o = oc.id;
        }
      }
    }
    links[local * 2] = best_s;
    links[local * 2 + 1] = best_o;
  }
  return links;
}

std::vector<int64_t> KbpearlLink(const Dataset& dataset,
                                 const std::vector<size_t>& subset) {
  CandidateCache cache(dataset, subset);
  std::vector<int64_t> links(cache.view.mention_surface.size(), kNilId);
  constexpr size_t kRelationFanout = 4;
  for (size_t local = 0; local < cache.view.triples.size(); ++local) {
    const OieTriple& triple = dataset.okb.triple(cache.view.triples[local]);
    const auto& s_cands = cache.candidates[cache.view.mention_surface[local * 2]];
    const auto& o_cands =
        cache.candidates[cache.view.mention_surface[local * 2 + 1]];
    auto r_cands =
        dataset.ckb.RelationCandidates(triple.predicate, kRelationFanout);
    double best = 0.0;
    int64_t best_s = kNilId;
    int64_t best_o = kNilId;
    for (const auto& sc : s_cands) {
      for (const auto& oc : o_cands) {
        double base = 0.5 * (sc.popularity + oc.popularity);
        double fact_bonus = 0.0;
        for (const auto& rc : r_cands) {
          if (dataset.ckb.HasFact(sc.id, rc.id, oc.id)) {
            fact_bonus = std::max(fact_bonus, 1.0 + rc.score);
          }
        }
        double score = base + fact_bonus;
        if (score > best) {
          best = score;
          best_s = sc.id;
          best_o = oc.id;
        }
      }
    }
    // Abstain when even the best joint reading is weak (KBPearl links
    // selectively; that caution is what keeps it competitive on noisy news
    // extractions).
    if (best >= 0.3) {
      links[local * 2] = best_s;
      links[local * 2 + 1] = best_o;
    }
  }
  return links;
}

}  // namespace jocl

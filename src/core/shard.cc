#include "core/shard.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "cluster/union_find.h"
#include "util/logging.h"

namespace jocl {
namespace {

constexpr size_t kNoComponent = static_cast<size_t>(-1);

/// Local surface index of a global surface id within a shard's sorted
/// surface map (the map is strictly increasing, so binary search replaces
/// the eager path's g2l hash without changing any value).
size_t LocalIndexOf(const std::vector<size_t>& surface_map, size_t global) {
  return static_cast<size_t>(
      std::lower_bound(surface_map.begin(), surface_map.end(), global) -
      surface_map.begin());
}

/// Distinct sorted global surface ids of one role over a shard's triples.
void FillSurfaceMap(const std::vector<size_t>& triple_map,
                    const std::vector<size_t>& of_triple,
                    std::vector<size_t>* surface_map) {
  surface_map->clear();
  surface_map->reserve(triple_map.size());
  for (size_t t : triple_map) surface_map->push_back(of_triple[t]);
  std::sort(surface_map->begin(), surface_map->end());
  surface_map->erase(std::unique(surface_map->begin(), surface_map->end()),
                     surface_map->end());
}

/// Completes one role of a lazily materialized shard: surfaces in
/// ascending global-id order, per-triple indices, first-local-mention
/// representatives, copied candidate lists.
template <typename Candidate>
void MaterializeRole(const std::vector<std::string>& surfaces,
                     const std::vector<size_t>& of_triple,
                     const std::vector<std::vector<Candidate>>& candidates,
                     const std::vector<size_t>& triple_map,
                     const std::vector<size_t>& surface_map,
                     std::vector<std::string>* local_surfaces,
                     std::vector<size_t>* local_of,
                     std::vector<size_t>* local_rep,
                     std::vector<std::vector<Candidate>>* local_candidates) {
  local_surfaces->reserve(surface_map.size());
  local_candidates->reserve(surface_map.size());
  for (size_t global : surface_map) {
    local_surfaces->push_back(surfaces[global]);
    local_candidates->push_back(candidates[global]);
  }
  local_of->reserve(triple_map.size());
  local_rep->assign(surface_map.size(), static_cast<size_t>(-1));
  for (size_t t = 0; t < triple_map.size(); ++t) {
    size_t local = LocalIndexOf(surface_map, of_triple[triple_map[t]]);
    local_of->push_back(local);
    if ((*local_rep)[local] == static_cast<size_t>(-1)) {
      (*local_rep)[local] = t;
    }
  }
}

/// One role of ShardMatchesCached: verifies the cached role against the
/// projection without materializing it.
template <typename Candidate, typename CandidateEqual>
bool RoleMatches(const std::vector<std::string>& surfaces,
                 const std::vector<size_t>& of_triple,
                 const std::vector<std::vector<Candidate>>& candidates,
                 const std::vector<size_t>& triple_map,
                 const std::vector<size_t>& surface_map,
                 const std::vector<std::string>& cached_surfaces,
                 const std::vector<size_t>& cached_of,
                 const std::vector<size_t>& cached_rep,
                 const std::vector<std::vector<Candidate>>& cached_candidates,
                 CandidateEqual&& candidate_equal) {
  if (cached_surfaces.size() != surface_map.size() ||
      cached_of.size() != triple_map.size() ||
      cached_rep.size() != surface_map.size() ||
      cached_candidates.size() != surface_map.size()) {
    return false;
  }
  for (size_t i = 0; i < surface_map.size(); ++i) {
    if (cached_surfaces[i] != surfaces[surface_map[i]]) return false;
    const auto& a = cached_candidates[i];
    const auto& b = candidates[surface_map[i]];
    if (a.size() != b.size()) return false;
    for (size_t c = 0; c < a.size(); ++c) {
      if (!candidate_equal(a[c], b[c])) return false;
    }
  }
  std::vector<uint8_t> seen(surface_map.size(), 0);
  for (size_t t = 0; t < triple_map.size(); ++t) {
    size_t local = LocalIndexOf(surface_map, of_triple[triple_map[t]]);
    if (cached_of[t] != local) return false;
    if (!seen[local]) {
      seen[local] = 1;
      if (cached_rep[local] != t) return false;
    }
  }
  return true;
}

bool PairsMatch(const std::vector<SurfacePair>& pairs,
                const std::vector<size_t>& pair_map,
                const std::vector<size_t>& surface_map,
                const std::vector<SurfacePair>& cached_pairs) {
  if (cached_pairs.size() != pair_map.size()) return false;
  for (size_t i = 0; i < pair_map.size(); ++i) {
    const SurfacePair& global = pairs[pair_map[i]];
    const SurfacePair& local = cached_pairs[i];
    if (local.a != LocalIndexOf(surface_map, global.a) ||
        local.b != LocalIndexOf(surface_map, global.b) ||
        local.idf != global.idf ||
        local.candidate_blocked != global.candidate_blocked) {
      return false;
    }
  }
  return true;
}

/// Empties a recycled shard. The index vectors keep their storage (the
/// surface maps are refilled by FillSurfaceMap); the rest of the body is
/// rebuilt only for the few shards that materialize it.
void ClearShard(ProblemShard* shard) {
  std::vector<size_t> triples = std::move(shard->problem.triples);
  triples.clear();
  shard->problem = JoclProblem();
  shard->problem.triples = std::move(triples);
  for (auto* map : {&shard->triple_map, &shard->subject_pair_map,
                    &shard->predicate_pair_map, &shard->object_pair_map}) {
    map->clear();
  }
}

}  // namespace

std::vector<size_t> PackWeightedItems(const std::vector<size_t>& weights,
                                      size_t bins) {
  const size_t n = weights.size();
  std::vector<size_t> bin_of(n);
  if (bins == 0 || bins >= n) {
    std::iota(bin_of.begin(), bin_of.end(), 0);
    return bin_of;
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return a < b;
  });
  std::vector<size_t> bin_weight(bins, 0);
  for (size_t item : order) {
    size_t lightest = 0;
    for (size_t bin = 1; bin < bins; ++bin) {
      if (bin_weight[bin] < bin_weight[lightest]) lightest = bin;
    }
    bin_of[item] = lightest;
    bin_weight[lightest] += weights[item];
  }
  return bin_of;
}

size_t ComputeProblemComponents(const JoclProblem& problem,
                                std::vector<size_t>* comp_of_triple,
                                std::vector<size_t>* comp_weight) {
  const size_t n_triples = problem.triples.size();

  // Union-find over triples: a pair variable joins the representative
  // triples of its two surfaces (its consistency factors attach there;
  // everything else a pair touches follows transitively).
  UnionFind uf(n_triples);
  auto link_pairs = [&](const std::vector<SurfacePair>& pairs,
                        const std::vector<size_t>& representative) {
    for (const auto& pair : pairs) {
      uf.Union(representative[pair.a], representative[pair.b]);
    }
  };
  link_pairs(problem.subject_pairs, problem.subject_rep);
  link_pairs(problem.predicate_pairs, problem.predicate_rep);
  link_pairs(problem.object_pairs, problem.object_rep);

  // Components in first-appearance order over triples.
  std::vector<size_t> comp_of_root(n_triples, kNoComponent);
  comp_of_triple->resize(n_triples);
  comp_weight->clear();
  for (size_t t = 0; t < n_triples; ++t) {
    size_t& comp = comp_of_root[uf.Find(t)];
    if (comp == kNoComponent) {
      comp = comp_weight->size();
      comp_weight->push_back(0);
    }
    (*comp_of_triple)[t] = comp;
    ++(*comp_weight)[comp];
  }
  return comp_weight->size();
}

void MaterializeShardPlan(const JoclProblem& problem,
                          const std::vector<size_t>& comp_of_triple,
                          const std::vector<size_t>& comp_weight,
                          size_t max_shards, ShardPlan* plan) {
  const size_t n_triples = problem.triples.size();
  const size_t n_components = comp_weight.size();

  plan->component_count = n_components;
  const size_t n_shards =
      (max_shards == 0 || max_shards >= n_components) ? n_components
                                                      : max_shards;
  std::vector<size_t> shard_of_comp = PackWeightedItems(comp_weight, n_shards);
  plan->shards.resize(n_shards);
  for (ProblemShard& shard : plan->shards) ClearShard(&shard);

  // Exact reservations: the steady-state session calls this every batch
  // over thousands of mostly-singleton shards, where growth reallocation
  // churn would dominate the actual index writes.
  {
    std::vector<size_t> shard_triples(n_shards, 0);
    for (size_t c = 0; c < comp_weight.size(); ++c) {
      shard_triples[shard_of_comp[c]] += comp_weight[c];
    }
    for (size_t s = 0; s < n_shards; ++s) {
      plan->shards[s].triple_map.reserve(shard_triples[s]);
      plan->shards[s].problem.triples.reserve(shard_triples[s]);
    }
  }

  std::vector<size_t> shard_of_triple(n_triples);
  for (size_t t = 0; t < n_triples; ++t) {
    shard_of_triple[t] = shard_of_comp[comp_of_triple[t]];
    ProblemShard& shard = plan->shards[shard_of_triple[t]];
    shard.triple_map.push_back(t);  // ascending by construction
    shard.problem.triples.push_back(problem.triples[t]);
  }

  for (ProblemShard& shard : plan->shards) {
    FillSurfaceMap(shard.triple_map, problem.subject_of,
                   &shard.subject_surface_map);
    FillSurfaceMap(shard.triple_map, problem.predicate_of,
                   &shard.predicate_surface_map);
    FillSurfaceMap(shard.triple_map, problem.object_of,
                   &shard.object_surface_map);
  }

  // Pair maps in one global-order pass per role, so each shard's pair
  // list is a subsequence of the global order.
  std::vector<size_t> counts(n_shards);
  auto scatter_pair_maps = [&](const std::vector<SurfacePair>& pairs,
                               const std::vector<size_t>& representative,
                               std::vector<size_t> ProblemShard::*pair_map) {
    std::fill(counts.begin(), counts.end(), 0);
    for (const SurfacePair& pair : pairs) {
      ++counts[shard_of_triple[representative[pair.a]]];
    }
    for (size_t s = 0; s < n_shards; ++s) {
      (plan->shards[s].*pair_map).reserve(counts[s]);
    }
    for (size_t p = 0; p < pairs.size(); ++p) {
      size_t shard_id = shard_of_triple[representative[pairs[p].a]];
      (plan->shards[shard_id].*pair_map).push_back(p);
    }
  };
  scatter_pair_maps(problem.subject_pairs, problem.subject_rep,
                    &ProblemShard::subject_pair_map);
  scatter_pair_maps(problem.predicate_pairs, problem.predicate_rep,
                    &ProblemShard::predicate_pair_map);
  scatter_pair_maps(problem.object_pairs, problem.object_rep,
                    &ProblemShard::object_pair_map);
}

void MaterializeShardProblem(const JoclProblem& problem, ProblemShard* shard) {
  JoclProblem& local = shard->problem;
  MaterializeRole(problem.subject_surfaces, problem.subject_of,
                  problem.subject_candidates, shard->triple_map,
                  shard->subject_surface_map, &local.subject_surfaces,
                  &local.subject_of, &local.subject_rep,
                  &local.subject_candidates);
  MaterializeRole(problem.predicate_surfaces, problem.predicate_of,
                  problem.predicate_candidates, shard->triple_map,
                  shard->predicate_surface_map, &local.predicate_surfaces,
                  &local.predicate_of, &local.predicate_rep,
                  &local.predicate_candidates);
  MaterializeRole(problem.object_surfaces, problem.object_of,
                  problem.object_candidates, shard->triple_map,
                  shard->object_surface_map, &local.object_surfaces,
                  &local.object_of, &local.object_rep,
                  &local.object_candidates);

  auto localize_pairs = [](const std::vector<SurfacePair>& pairs,
                           const std::vector<size_t>& pair_map,
                           const std::vector<size_t>& surface_map,
                           std::vector<SurfacePair>* local_pairs) {
    local_pairs->reserve(pair_map.size());
    for (size_t p : pair_map) {
      SurfacePair pair = pairs[p];
      pair.a = LocalIndexOf(surface_map, pair.a);
      pair.b = LocalIndexOf(surface_map, pair.b);
      local_pairs->push_back(pair);
    }
  };
  localize_pairs(problem.subject_pairs, shard->subject_pair_map,
                 shard->subject_surface_map, &local.subject_pairs);
  localize_pairs(problem.predicate_pairs, shard->predicate_pair_map,
                 shard->predicate_surface_map, &local.predicate_pairs);
  localize_pairs(problem.object_pairs, shard->object_pair_map,
                 shard->object_surface_map, &local.object_pairs);
}

bool ShardMatchesCached(const JoclProblem& problem, const ProblemShard& shard,
                        const JoclProblem& cached) {
  if (cached.triples != shard.problem.triples) return false;
  auto entity_equal = [](const EntityCandidate& a, const EntityCandidate& b) {
    return a.id == b.id && a.popularity == b.popularity;
  };
  auto relation_equal = [](const RelationCandidate& a,
                           const RelationCandidate& b) {
    return a.id == b.id && a.score == b.score;
  };
  return RoleMatches(problem.subject_surfaces, problem.subject_of,
                     problem.subject_candidates, shard.triple_map,
                     shard.subject_surface_map, cached.subject_surfaces,
                     cached.subject_of, cached.subject_rep,
                     cached.subject_candidates, entity_equal) &&
         RoleMatches(problem.predicate_surfaces, problem.predicate_of,
                     problem.predicate_candidates, shard.triple_map,
                     shard.predicate_surface_map, cached.predicate_surfaces,
                     cached.predicate_of, cached.predicate_rep,
                     cached.predicate_candidates, relation_equal) &&
         RoleMatches(problem.object_surfaces, problem.object_of,
                     problem.object_candidates, shard.triple_map,
                     shard.object_surface_map, cached.object_surfaces,
                     cached.object_of, cached.object_rep,
                     cached.object_candidates, entity_equal) &&
         PairsMatch(problem.subject_pairs, shard.subject_pair_map,
                    shard.subject_surface_map, cached.subject_pairs) &&
         PairsMatch(problem.predicate_pairs, shard.predicate_pair_map,
                    shard.predicate_surface_map, cached.predicate_pairs) &&
         PairsMatch(problem.object_pairs, shard.object_pair_map,
                    shard.object_surface_map, cached.object_pairs);
}

ShardPlan PartitionProblem(const JoclProblem& problem, size_t max_shards) {
  std::vector<size_t> comp_of_triple;
  std::vector<size_t> comp_weight;
  const size_t n_components =
      ComputeProblemComponents(problem, &comp_of_triple, &comp_weight);
  ShardPlan plan;
  MaterializeShardPlan(problem, comp_of_triple, comp_weight, max_shards,
                       &plan);
  for (ProblemShard& shard : plan.shards) {
    MaterializeShardProblem(problem, &shard);
  }
  JOCL_LOG(kDebug) << "partition: " << problem.triples.size()
                   << " triples -> " << n_components << " components in "
                   << plan.shards.size() << " shards";
  return plan;
}

}  // namespace jocl

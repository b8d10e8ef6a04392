#include "support/decode_reference.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_map>

#include "cluster/union_find.h"

namespace jocl {
namespace {

// The decode's merge threshold on same-meaning beliefs.
constexpr double kClusterThreshold = 0.5;

// Maps a linking-variable state to a CKB id: state 0 is NIL, state k is
// candidate k-1.
template <typename Candidate>
int64_t StateToId(const std::vector<Candidate>& candidates, size_t state) {
  if (state == 0 || state > candidates.size()) return kNilId;
  return candidates[state - 1].id;
}

}  // namespace

std::vector<size_t> ClusterPairGraphReference(
    size_t n, const std::vector<PairEdge>& edges, double threshold) {
  // Deduplicated edge lookup (max weight wins) + adjacency.
  std::unordered_map<uint64_t, double> weight_of;
  auto key_of = [](size_t a, size_t b) {
    return (static_cast<uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  };
  for (const auto& [a, b, weight] : edges) {
    auto [it, inserted] = weight_of.emplace(key_of(a, b), weight);
    if (!inserted) it->second = std::max(it->second, weight);
  }
  std::vector<std::tuple<double, size_t, size_t>> ordered;
  ordered.reserve(weight_of.size());
  for (const auto& [key, weight] : weight_of) {
    if (weight >= threshold) {
      ordered.emplace_back(weight, static_cast<size_t>(key >> 32),
                           static_cast<size_t>(key & 0xffffffff));
    }
  }
  // The sort's full tie-break makes the order deterministic even though
  // the map iteration above is not.
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& x, const auto& y) {
              if (std::get<0>(x) != std::get<0>(y)) {
                return std::get<0>(x) > std::get<0>(y);
              }
              if (std::get<1>(x) != std::get<1>(y)) {
                return std::get<1>(x) < std::get<1>(y);
              }
              return std::get<2>(x) < std::get<2>(y);
            });

  UnionFind uf(n);
  std::unordered_map<size_t, std::vector<size_t>> members;
  auto members_of = [&](size_t root) -> std::vector<size_t>& {
    auto [it, inserted] = members.emplace(root, std::vector<size_t>{});
    if (inserted) it->second.push_back(root);
    return it->second;
  };
  for (const auto& [weight, a, b] : ordered) {
    size_t ra = uf.Find(a);
    size_t rb = uf.Find(b);
    if (ra == rb) continue;
    std::vector<size_t>& ma = members_of(ra);
    std::vector<size_t>& mb = members_of(rb);
    // Average the model's beliefs over every OBSERVED cross edge.
    double sum = 0.0;
    size_t count = 0;
    for (size_t x : ma) {
      for (size_t y : mb) {
        auto it = weight_of.find(key_of(x, y));
        if (it != weight_of.end()) {
          sum += it->second;
          ++count;
        }
      }
    }
    if (count > 0 && sum / static_cast<double>(count) < threshold) {
      continue;  // contradicted merge
    }
    uf.Union(ra, rb);
    size_t new_root = uf.Find(ra);
    std::vector<size_t> merged = std::move(ma);
    merged.insert(merged.end(), mb.begin(), mb.end());
    members.erase(ra);
    members.erase(rb);
    members[new_root] = std::move(merged);
  }
  return uf.Labels();
}

void DecodeJointResultReference(const JoclProblem& problem,
                                const JoclBeliefs& beliefs,
                                const GraphBuilderOptions& builder,
                                JoclResult* result) {
  const size_t n = problem.triples.size();
  const size_t n_subject_surfaces = problem.subject_surfaces.size();
  const size_t n_object_surfaces = problem.object_surfaces.size();

  // ---- linking decode -----------------------------------------------------
  result->np_link.assign(n * 2, kNilId);
  result->rp_link.assign(n, kNilId);
  if (builder.enable_linking) {
    for (size_t t = 0; t < n; ++t) {
      result->np_link[t * 2] =
          StateToId(problem.subject_candidates[problem.subject_of[t]],
                    beliefs.es_state[t]);
      result->np_link[t * 2 + 1] =
          StateToId(problem.object_candidates[problem.object_of[t]],
                    beliefs.eo_state[t]);
      result->rp_link[t] =
          StateToId(problem.predicate_candidates[problem.predicate_of[t]],
                    beliefs.rp_state[t]);
    }
  }

  // ---- canonicalization decode --------------------------------------------
  // Node space: subject surfaces then object surfaces; identical strings
  // across the two roles are pre-merged with weight-1 edges.
  std::vector<size_t> np_labels;
  std::vector<size_t> rp_labels;
  UnionFind np_uf(n_subject_surfaces + n_object_surfaces);
  UnionFind rp_uf(problem.predicate_surfaces.size());
  std::vector<PairEdge> same_string_edges;
  {
    std::unordered_map<std::string, size_t> by_string;
    for (size_t s = 0; s < n_subject_surfaces; ++s) {
      by_string.emplace(problem.subject_surfaces[s], s);
    }
    for (size_t o = 0; o < n_object_surfaces; ++o) {
      auto it = by_string.find(problem.object_surfaces[o]);
      if (it != by_string.end()) {
        same_string_edges.emplace_back(it->second, n_subject_surfaces + o,
                                       1.0);
        np_uf.Union(it->second, n_subject_surfaces + o);
      }
    }
  }
  if (builder.enable_canonicalization) {
    std::vector<PairEdge> np_edges = same_string_edges;
    for (size_t p = 0; p < problem.subject_pairs.size(); ++p) {
      np_edges.emplace_back(problem.subject_pairs[p].a,
                            problem.subject_pairs[p].b, beliefs.x_marg[p][1]);
    }
    for (size_t p = 0; p < problem.object_pairs.size(); ++p) {
      np_edges.emplace_back(n_subject_surfaces + problem.object_pairs[p].a,
                            n_subject_surfaces + problem.object_pairs[p].b,
                            beliefs.z_marg[p][1]);
    }
    np_labels = ClusterPairGraphReference(
        n_subject_surfaces + n_object_surfaces, np_edges,
        kClusterThreshold);
    std::vector<PairEdge> rp_edges;
    for (size_t p = 0; p < problem.predicate_pairs.size(); ++p) {
      rp_edges.emplace_back(problem.predicate_pairs[p].a,
                            problem.predicate_pairs[p].b,
                            beliefs.y_marg[p][1]);
    }
    rp_labels = ClusterPairGraphReference(problem.predicate_surfaces.size(),
                                          rp_edges, kClusterThreshold);
  } else if (builder.enable_linking) {
    // JOCLlink fallback: group by linked entity/relation.
    std::unordered_map<int64_t, size_t> first_subject;
    for (size_t t = 0; t < n; ++t) {
      int64_t e = result->np_link[t * 2];
      if (e == kNilId) continue;
      auto [it, inserted] = first_subject.emplace(e, problem.subject_of[t]);
      if (!inserted) np_uf.Union(it->second, problem.subject_of[t]);
    }
    for (size_t t = 0; t < n; ++t) {
      int64_t e = result->np_link[t * 2 + 1];
      if (e == kNilId) continue;
      auto [it, inserted] =
          first_subject.emplace(e, n_subject_surfaces + problem.object_of[t]);
      if (!inserted) {
        np_uf.Union(it->second, n_subject_surfaces + problem.object_of[t]);
      }
    }
    std::unordered_map<int64_t, size_t> first_predicate;
    for (size_t t = 0; t < n; ++t) {
      int64_t r = result->rp_link[t];
      if (r == kNilId) continue;
      auto [it, inserted] = first_predicate.emplace(r, problem.predicate_of[t]);
      if (!inserted) rp_uf.Union(it->second, problem.predicate_of[t]);
    }
  }

  // ---- materialize mention cluster labels ---------------------------------
  if (np_labels.empty()) np_labels = np_uf.Labels();
  if (rp_labels.empty()) rp_labels = rp_uf.Labels();
  result->np_cluster.resize(n * 2);
  result->rp_cluster.resize(n);
  for (size_t t = 0; t < n; ++t) {
    result->np_cluster[t * 2] = np_labels[problem.subject_of[t]];
    result->np_cluster[t * 2 + 1] =
        np_labels[n_subject_surfaces + problem.object_of[t]];
    result->rp_cluster[t] = rp_labels[problem.predicate_of[t]];
  }
}

JoclBeliefs BeliefsOfResult(const JoclProblem& problem,
                            const JoclResult& result,
                            const JoclOptions& options) {
  JoclBeliefs beliefs;
  size_t slot = 0;
  auto take = [&](size_t count, std::vector<std::vector<double>>* marg,
                  std::vector<size_t>* state) {
    for (size_t i = 0; i < count; ++i) {
      const std::vector<double>& marginal = result.diagnostics.marginals[slot++];
      size_t best = 0;
      for (size_t x = 1; x < marginal.size(); ++x) {
        if (marginal[x] > marginal[best]) best = x;
      }
      marg->push_back(marginal);
      state->push_back(best);
    }
  };
  if (options.builder.enable_canonicalization) {
    take(problem.subject_pairs.size(), &beliefs.x_marg, &beliefs.x_state);
    take(problem.predicate_pairs.size(), &beliefs.y_marg, &beliefs.y_state);
    take(problem.object_pairs.size(), &beliefs.z_marg, &beliefs.z_state);
  }
  if (options.builder.enable_linking) {
    const size_t n = problem.triples.size();
    take(n, &beliefs.es_marg, &beliefs.es_state);
    take(n, &beliefs.rp_marg, &beliefs.rp_state);
    take(n, &beliefs.eo_marg, &beliefs.eo_state);
  }
  return beliefs;
}

}  // namespace jocl

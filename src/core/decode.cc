#include "core/decode.h"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "cluster/union_find.h"
#include "core/jocl.h"

namespace jocl {
namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

// Same-meaning belief a pair edge needs to propose a cluster merge: the
// pair variable's own argmax.
constexpr double kClusterThreshold = 0.5;

// Maps a linking-variable state to a CKB id: state 0 is NIL, state k is
// candidate k-1.
template <typename Candidate>
int64_t StateToId(const std::vector<Candidate>& candidates, size_t state) {
  if (state == 0 || state > candidates.size()) return kNilId;
  return candidates[state - 1].id;
}

}  // namespace

std::vector<size_t> ClusterPairGraph(size_t n,
                                     const std::vector<PairEdge>& edges,
                                     double threshold) {
  // Deduplicate by packed (min, max) key. The sort is stable, so
  // duplicates fold in input order (max weight wins). Self edges never
  // join two clusters or cross between them, so they are dropped.
  struct Edge {
    uint64_t key;
    double weight;
  };
  std::vector<Edge> unique;
  unique.reserve(edges.size());
  for (const auto& [a, b, weight] : edges) {
    if (a == b) continue;
    unique.push_back(
        {(static_cast<uint64_t>(std::min(a, b)) << 32) | std::max(a, b),
         weight});
  }
  std::stable_sort(unique.begin(), unique.end(),
                   [](const Edge& x, const Edge& y) { return x.key < y.key; });
  size_t m = 0;
  for (size_t i = 0; i < unique.size(); ++i) {
    if (m > 0 && unique[m - 1].key == unique[i].key) {
      unique[m - 1].weight = std::max(unique[m - 1].weight, unique[i].weight);
    } else {
      unique[m++] = unique[i];
    }
  }
  unique.resize(m);
  auto lo_of = [](const Edge& e) { return static_cast<size_t>(e.key >> 32); };
  auto hi_of = [](const Edge& e) {
    return static_cast<size_t>(e.key & 0xffffffff);
  };

  // CSR adjacency over every observed edge: the veto reads sub-threshold
  // edges too.
  struct Neighbour {
    size_t node;
    double weight;
  };
  std::vector<size_t> row(n + 2, 0);
  for (const Edge& e : unique) {
    ++row[lo_of(e) + 2];
    ++row[hi_of(e) + 2];
  }
  std::partial_sum(row.begin(), row.end(), row.begin());
  std::vector<Neighbour> adjacency(2 * unique.size());
  for (const Edge& e : unique) {
    adjacency[row[lo_of(e) + 1]++] = {hi_of(e), e.weight};
    adjacency[row[hi_of(e) + 1]++] = {lo_of(e), e.weight};
  }

  // Merge candidates in decreasing confidence. A stable sort over the
  // key-sorted edges breaks weight ties on (a, b).
  unique.erase(std::remove_if(unique.begin(), unique.end(),
                              [&](const Edge& e) {
                                return !(e.weight >= threshold);
                              }),
               unique.end());
  std::stable_sort(
      unique.begin(), unique.end(),
      [](const Edge& x, const Edge& y) { return x.weight > y.weight; });

  // Cluster members as intrusive lists (head/tail valid at roots). A
  // merge appends b's cluster to a's, so list order is merge history.
  UnionFind uf(n);
  std::vector<size_t> next(n, kNone);
  std::vector<size_t> head(n);
  std::vector<size_t> tail(n);
  std::iota(head.begin(), head.end(), 0);
  std::iota(tail.begin(), tail.end(), 0);
  // Veto scratch: stamp[y] == e marks y as a member of the candidate
  // merge e's b-side cluster, at list position position[y].
  std::vector<size_t> stamp(n, kNone);
  std::vector<size_t> position(n);
  std::vector<Neighbour> hits;
  for (size_t e = 0; e < unique.size(); ++e) {
    const size_t ra = uf.Find(lo_of(unique[e]));
    const size_t rb = uf.Find(hi_of(unique[e]));
    if (ra == rb) continue;
    size_t pos = 0;
    for (size_t y = head[rb]; y != kNone; y = next[y]) {
      stamp[y] = e;
      position[y] = pos++;
    }
    // Average the model's beliefs over every OBSERVED cross edge, summed
    // x-major in a's list order and, per x, in b's list order.
    double sum = 0.0;
    size_t count = 0;
    for (size_t x = head[ra]; x != kNone; x = next[x]) {
      hits.clear();
      for (size_t k = row[x]; k < row[x + 1]; ++k) {
        const Neighbour& neighbour = adjacency[k];
        if (stamp[neighbour.node] == e) {
          hits.push_back({position[neighbour.node], neighbour.weight});
        }
      }
      std::sort(hits.begin(), hits.end(),
                [](const Neighbour& p, const Neighbour& q) {
                  return p.node < q.node;
                });
      for (const Neighbour& hit : hits) sum += hit.weight;
      count += hits.size();
    }
    if (count > 0 && sum / static_cast<double>(count) < threshold) {
      continue;  // contradicted merge
    }
    uf.Union(ra, rb);
    const size_t root = uf.Find(ra);
    const size_t first = head[ra];
    const size_t last = tail[rb];
    next[tail[ra]] = head[rb];
    head[root] = first;
    tail[root] = last;
  }
  return uf.Labels();
}

void DecodeJointResult(const JoclProblem& problem, const JoclBeliefs& beliefs,
                       const GraphBuilderOptions& builder,
                       JoclResult* result) {
  const size_t n = problem.triples.size();
  const size_t n_subject_surfaces = problem.subject_surfaces.size();
  const size_t n_object_surfaces = problem.object_surfaces.size();
  const size_t n_predicate_surfaces = problem.predicate_surfaces.size();

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
  std::vector<PairEdge> np_edges;
  if (builder.enable_canonicalization) {
    np_edges.reserve(n_object_surfaces + problem.subject_pairs.size() +
                     problem.object_pairs.size());
  }
  {
    std::unordered_map<std::string_view, size_t> by_string;
    by_string.reserve(n_subject_surfaces);
    for (size_t s = 0; s < n_subject_surfaces; ++s) {
      by_string.emplace(problem.subject_surfaces[s], s);
    }
    for (size_t o = 0; o < n_object_surfaces; ++o) {
      auto it = by_string.find(problem.object_surfaces[o]);
      if (it != by_string.end()) {
        np_edges.emplace_back(it->second, n_subject_surfaces + o, 1.0);
      }
    }
  }
  std::vector<size_t> np_labels;
  std::vector<size_t> rp_labels;
  if (builder.enable_canonicalization) {
    for (size_t p = 0; p < problem.subject_pairs.size(); ++p) {
      np_edges.emplace_back(problem.subject_pairs[p].a,
                            problem.subject_pairs[p].b, beliefs.x_marg[p][1]);
    }
    for (size_t p = 0; p < problem.object_pairs.size(); ++p) {
      np_edges.emplace_back(n_subject_surfaces + problem.object_pairs[p].a,
                            n_subject_surfaces + problem.object_pairs[p].b,
                            beliefs.z_marg[p][1]);
    }
    np_labels = ClusterPairGraph(n_subject_surfaces + n_object_surfaces,
                                 np_edges, kClusterThreshold);
    std::vector<PairEdge> rp_edges;
    rp_edges.reserve(problem.predicate_pairs.size());
    for (size_t p = 0; p < problem.predicate_pairs.size(); ++p) {
      rp_edges.emplace_back(problem.predicate_pairs[p].a,
                            problem.predicate_pairs[p].b,
                            beliefs.y_marg[p][1]);
    }
    rp_labels = ClusterPairGraph(n_predicate_surfaces, rp_edges,
                                 kClusterThreshold);
  } else {
    UnionFind np_uf(n_subject_surfaces + n_object_surfaces);
    UnionFind rp_uf(n_predicate_surfaces);
    for (const auto& [a, b, weight] : np_edges) np_uf.Union(a, b);
    if (builder.enable_linking) {
      // JOCLlink fallback: group by linked entity/relation so the result
      // is still a complete joint output.
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
        auto [it, inserted] = first_subject.emplace(
            e, n_subject_surfaces + problem.object_of[t]);
        if (!inserted) {
          np_uf.Union(it->second, n_subject_surfaces + problem.object_of[t]);
        }
      }
      std::unordered_map<int64_t, size_t> first_predicate;
      for (size_t t = 0; t < n; ++t) {
        int64_t r = result->rp_link[t];
        if (r == kNilId) continue;
        auto [it, inserted] =
            first_predicate.emplace(r, problem.predicate_of[t]);
        if (!inserted) rp_uf.Union(it->second, problem.predicate_of[t]);
      }
    }
    np_labels = np_uf.Labels();
    rp_labels = rp_uf.Labels();
  }

  // ---- materialize mention cluster labels ---------------------------------
  result->np_cluster.resize(n * 2);
  result->rp_cluster.resize(n);
  for (size_t t = 0; t < n; ++t) {
    result->np_cluster[t * 2] = np_labels[problem.subject_of[t]];
    result->np_cluster[t * 2 + 1] =
        np_labels[n_subject_surfaces + problem.object_of[t]];
    result->rp_cluster[t] = rp_labels[problem.predicate_of[t]];
  }
}

}  // namespace jocl

// From-scratch reference implementation of problem construction, for tests
// that check `BuildProblem` / `ProblemBuilder` byte for byte: one pass of
// surface deduplication, candidate generation and blocking (IDF token
// buckets plus the side-information buckets) over a triple subset, with
// no state carried between calls. Also holds `ProblemsIdentical`, the
// field-by-field comparison of two problems.
#ifndef JOCL_TESTS_SCRATCH_PROBLEM_H_
#define JOCL_TESTS_SCRATCH_PROBLEM_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/problem.h"
#include "text/tokenizer.h"

namespace jocl {
namespace scratch {

// Deduplicates one role's phrases into surfaces + per-triple indices.
inline void BuildSurfaces(const std::vector<std::string>& phrases,
                          std::vector<std::string>* surfaces,
                          std::vector<size_t>* of_triple,
                          std::vector<size_t>* representative) {
  std::unordered_map<std::string, size_t> index;
  of_triple->reserve(phrases.size());
  for (size_t t = 0; t < phrases.size(); ++t) {
    auto [it, inserted] = index.emplace(phrases[t], surfaces->size());
    if (inserted) {
      surfaces->push_back(phrases[t]);
      representative->push_back(t);
    }
    of_triple->push_back(it->second);
  }
}

// Token-blocked pair generation with the IDF threshold, plus optional
// side-information blocking buckets (shared top candidate, shared PPDB
// cluster) whose pairs are admitted regardless of IDF similarity.
inline std::vector<SurfacePair> BlockPairs(
    const std::vector<std::string>& surfaces, const IdfTable& idf,
    const std::vector<std::vector<std::string>>& trusted_buckets,
    const std::vector<std::vector<std::string>>& candidate_buckets,
    const ProblemOptions& options) {
  std::unordered_map<std::string, std::vector<size_t>> buckets;
  for (size_t i = 0; i < surfaces.size(); ++i) {
    const auto& stop = StopWords();
    for (const auto& token : Tokenize(surfaces[i])) {
      if (stop.count(token) > 0) continue;
      buckets[token].push_back(i);
    }
  }
  // `evaluated` avoids recomputing IDF within token blocking; `added`
  // tracks pairs actually admitted — later blocking stages must only skip
  // the latter (a pair can fail the IDF gate yet be admitted by a PPDB or
  // candidate bucket).
  std::unordered_set<uint64_t> evaluated;
  std::unordered_set<uint64_t> added;
  std::vector<SurfacePair> pairs;
  for (const auto& [token, members] : buckets) {
    if (members.size() > options.max_block_size) continue;
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        size_t a = std::min(members[i], members[j]);
        size_t b = std::max(members[i], members[j]);
        if (a == b) continue;
        uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
        if (!evaluated.insert(key).second) continue;
        double sim = idf.Similarity(surfaces[a], surfaces[b]);
        if (sim >= options.pair_threshold) {
          added.insert(key);
          pairs.push_back(SurfacePair{a, b, sim});
        }
      }
    }
  }
  // Side-information buckets: admit every in-bucket pair (capped).
  std::unordered_map<std::string, size_t> surface_index;
  for (size_t i = 0; i < surfaces.size(); ++i) {
    surface_index.emplace(surfaces[i], i);
  }
  auto admit_buckets = [&](const std::vector<std::vector<std::string>>&
                               bucket_list,
                           bool from_candidates) {
    for (const auto& bucket : bucket_list) {
      if (bucket.size() < 2 || bucket.size() > options.max_block_size) {
        continue;
      }
      std::vector<size_t> members;
      for (const auto& phrase : bucket) {
        auto it = surface_index.find(phrase);
        if (it != surface_index.end()) members.push_back(it->second);
      }
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          size_t a = std::min(members[i], members[j]);
          size_t b = std::max(members[i], members[j]);
          if (a == b) continue;
          uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
          if (!added.insert(key).second) continue;
          pairs.push_back(SurfacePair{
              a, b, idf.Similarity(surfaces[a], surfaces[b]),
              from_candidates});
        }
      }
    }
  };
  // Trusted (PPDB) buckets first so overlapping pairs keep the
  // independent-evidence tag.
  admit_buckets(trusted_buckets, /*from_candidates=*/false);
  admit_buckets(candidate_buckets, /*from_candidates=*/true);
  // Deterministic order; cap by similarity when oversized.
  std::sort(pairs.begin(), pairs.end(),
            [](const SurfacePair& x, const SurfacePair& y) {
              if (x.idf != y.idf) return x.idf > y.idf;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  if (pairs.size() > options.max_pairs_per_role) {
    pairs.resize(options.max_pairs_per_role);
  }
  // Re-sort by (a, b) so downstream iteration is index-ordered.
  std::sort(pairs.begin(), pairs.end(),
            [](const SurfacePair& x, const SurfacePair& y) {
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  return pairs;
}

}  // namespace scratch

/// The reference problem over \p triple_subset (any order, duplicates
/// allowed; every id must be < dataset.okb.size()). `BuildProblem` and
/// every `ProblemBuilder::Apply` must emit exactly this problem.
inline JoclProblem BuildScratchProblem(const Dataset& dataset,
                                       const SignalBundle& signals,
                                       const std::vector<size_t>& triple_subset,
                                       const ProblemOptions& options = {}) {
  JoclProblem problem;
  problem.triples = triple_subset;
  std::sort(problem.triples.begin(), problem.triples.end());
  problem.triples.erase(
      std::unique(problem.triples.begin(), problem.triples.end()),
      problem.triples.end());

  std::vector<std::string> subjects;
  std::vector<std::string> predicates;
  std::vector<std::string> objects;
  subjects.reserve(problem.triples.size());
  for (size_t t : problem.triples) {
    const OieTriple& triple = dataset.okb.triple(t);
    subjects.push_back(triple.subject);
    predicates.push_back(triple.predicate);
    objects.push_back(triple.object);
  }
  scratch::BuildSurfaces(subjects, &problem.subject_surfaces,
                         &problem.subject_of, &problem.subject_rep);
  scratch::BuildSurfaces(predicates, &problem.predicate_surfaces,
                         &problem.predicate_of, &problem.predicate_rep);
  scratch::BuildSurfaces(objects, &problem.object_surfaces,
                         &problem.object_of, &problem.object_rep);

  const CuratedKb& ckb = dataset.ckb;
  problem.subject_candidates.reserve(problem.subject_surfaces.size());
  for (const auto& surface : problem.subject_surfaces) {
    problem.subject_candidates.push_back(
        ckb.EntityCandidates(surface, options.max_candidates));
  }
  problem.object_candidates.reserve(problem.object_surfaces.size());
  for (const auto& surface : problem.object_surfaces) {
    problem.object_candidates.push_back(
        ckb.EntityCandidates(surface, options.max_candidates));
  }
  problem.predicate_candidates.reserve(problem.predicate_surfaces.size());
  for (const auto& surface : problem.predicate_surfaces) {
    problem.predicate_candidates.push_back(
        ckb.RelationCandidates(surface, options.max_candidates));
  }

  // Side-information blocking buckets. PPDB buckets carry independent
  // paraphrase evidence; candidate buckets are tagged so downstream
  // consumers can exclude them from consistency factors.
  std::vector<std::vector<std::string>> subject_ppdb_buckets;
  std::vector<std::vector<std::string>> predicate_ppdb_buckets;
  std::vector<std::vector<std::string>> object_ppdb_buckets;
  std::vector<std::vector<std::string>> subject_cand_buckets;
  std::vector<std::vector<std::string>> object_cand_buckets;
  std::vector<std::vector<std::string>> predicate_cand_buckets;
  if (options.side_info_blocking) {
    // (a) shared top candidate entity (NP roles only; see
    // ProblemBuilder::ActivateSurface);
    auto candidate_buckets =
        [&](const std::vector<std::string>& surfaces, const auto& candidates,
            std::vector<std::vector<std::string>>* out) {
          std::unordered_map<int64_t, std::vector<std::string>> by_id;
          for (size_t s = 0; s < surfaces.size(); ++s) {
            size_t top = std::min(options.blocking_candidates,
                                  candidates[s].size());
            for (size_t c = 0; c < top; ++c) {
              by_id[candidates[s][c].id].push_back(surfaces[s]);
            }
          }
          for (auto& [id, bucket] : by_id) {
            if (bucket.size() >= 2) out->push_back(std::move(bucket));
          }
        };
    candidate_buckets(problem.subject_surfaces, problem.subject_candidates,
                      &subject_cand_buckets);
    candidate_buckets(problem.object_surfaces, problem.object_candidates,
                      &object_cand_buckets);
    // (b) shared PPDB cluster representative.
    if (signals.ppdb != nullptr) {
      auto ppdb_buckets = [&](const std::vector<std::string>& surfaces,
                              std::vector<std::vector<std::string>>* out) {
        std::unordered_map<std::string, std::vector<std::string>> by_rep;
        for (const auto& surface : surfaces) {
          auto rep = signals.ppdb->Representative(surface);
          if (rep.has_value()) by_rep[*rep].push_back(surface);
        }
        for (auto& [rep, bucket] : by_rep) {
          if (bucket.size() >= 2) out->push_back(std::move(bucket));
        }
      };
      ppdb_buckets(problem.subject_surfaces, &subject_ppdb_buckets);
      ppdb_buckets(problem.predicate_surfaces, &predicate_ppdb_buckets);
      ppdb_buckets(problem.object_surfaces, &object_ppdb_buckets);
    }
  }

  problem.subject_pairs = scratch::BlockPairs(
      problem.subject_surfaces, signals.np_idf, subject_ppdb_buckets,
      subject_cand_buckets, options);
  problem.predicate_pairs = scratch::BlockPairs(
      problem.predicate_surfaces, signals.rp_idf, predicate_ppdb_buckets,
      predicate_cand_buckets, options);
  problem.object_pairs = scratch::BlockPairs(
      problem.object_surfaces, signals.np_idf, object_ppdb_buckets,
      object_cand_buckets, options);
  return problem;
}

/// Field-by-field byte comparison of two problems (similarities compared
/// with ==, not a tolerance).
inline ::testing::AssertionResult ProblemsIdentical(const JoclProblem& a,
                                                    const JoclProblem& b) {
  if (a.triples != b.triples)
    return ::testing::AssertionFailure() << "triples differ";
  if (a.subject_surfaces != b.subject_surfaces ||
      a.predicate_surfaces != b.predicate_surfaces ||
      a.object_surfaces != b.object_surfaces)
    return ::testing::AssertionFailure() << "surface lists differ";
  if (a.subject_of != b.subject_of || a.predicate_of != b.predicate_of ||
      a.object_of != b.object_of)
    return ::testing::AssertionFailure() << "per-triple surface maps differ";
  if (a.subject_rep != b.subject_rep || a.predicate_rep != b.predicate_rep ||
      a.object_rep != b.object_rep)
    return ::testing::AssertionFailure() << "representatives differ";
  const auto pairs_equal = [](const std::vector<SurfacePair>& x,
                              const std::vector<SurfacePair>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].a != y[i].a || x[i].b != y[i].b || x[i].idf != y[i].idf ||
          x[i].candidate_blocked != y[i].candidate_blocked)
        return false;
    }
    return true;
  };
  if (!pairs_equal(a.subject_pairs, b.subject_pairs) ||
      !pairs_equal(a.predicate_pairs, b.predicate_pairs) ||
      !pairs_equal(a.object_pairs, b.object_pairs))
    return ::testing::AssertionFailure() << "pair lists differ";
  const auto np_cands_equal =
      [](const std::vector<std::vector<EntityCandidate>>& x,
         const std::vector<std::vector<EntityCandidate>>& y) {
        if (x.size() != y.size()) return false;
        for (size_t i = 0; i < x.size(); ++i) {
          if (x[i].size() != y[i].size()) return false;
          for (size_t j = 0; j < x[i].size(); ++j) {
            if (x[i][j].id != y[i][j].id ||
                x[i][j].popularity != y[i][j].popularity)
              return false;
          }
        }
        return true;
      };
  if (!np_cands_equal(a.subject_candidates, b.subject_candidates) ||
      !np_cands_equal(a.object_candidates, b.object_candidates))
    return ::testing::AssertionFailure() << "entity candidate lists differ";
  if (a.predicate_candidates.size() != b.predicate_candidates.size())
    return ::testing::AssertionFailure() << "relation candidate lists differ";
  for (size_t i = 0; i < a.predicate_candidates.size(); ++i) {
    const auto& x = a.predicate_candidates[i];
    const auto& y = b.predicate_candidates[i];
    if (x.size() != y.size())
      return ::testing::AssertionFailure() << "relation candidate lists differ";
    for (size_t j = 0; j < x.size(); ++j) {
      if (x[j].id != y[j].id || x[j].score != y[j].score)
        return ::testing::AssertionFailure()
               << "relation candidate lists differ";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace jocl

#endif  // JOCL_TESTS_SCRATCH_PROBLEM_H_

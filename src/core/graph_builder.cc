#include "core/graph_builder.h"

#include <algorithm>
#include <unordered_map>

#include "core/signal_cache.h"
#include "util/logging.h"

namespace jocl {
namespace {

uint64_t PairKey(size_t a, size_t b) {
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
}

// Builds the unary canonicalization factor table for one pair variable
// (states: 0 = different meaning, 1 = same meaning). Each enabled signal
// contributes `sim` to state 1 and `1 - sim` to state 0 (paper §3.1.3).
FeatureTable PairFeatureTable(
    const std::vector<std::pair<WeightId, double>>& signals) {
  FeatureTable table(2);
  for (const auto& [weight, sim] : signals) {
    table.Add(0, weight, 1.0 - sim);
    table.Add(1, weight, sim);
  }
  return table;
}

// Triangle score (paper §3.1.5): all-ones satisfies transitivity (high),
// exactly two ones violates it (low), anything else is neutral (mid).
double TransitiveScore(size_t ones) {
  if (ones == 3) return kTransitiveHigh;
  if (ones == 2) return kTransitiveLow;
  return kTransitiveMid;
}

// Candidate-agreement signal (the f_cand extension feature): soft overlap
// of two candidate sets — the best min-popularity shared reading. Neutral
// 0.5 when either side has no candidates (absence is not evidence).
double CandidateAgreement(const std::vector<EntityCandidate>& a,
                          const std::vector<EntityCandidate>& b) {
  if (a.empty() || b.empty()) return 0.5;
  double best = 0.0;
  for (const auto& ca : a) {
    for (const auto& cb : b) {
      if (ca.id == cb.id) {
        best = std::max(best, std::min(ca.popularity, cb.popularity));
      }
    }
  }
  return best;
}

// F5 row of one (predicate surface, candidate relation), computed from
// scratch over the relation's canonical name and every alias.
RelationRow DirectRelationRow(const SignalCache& signals, const CuratedKb& ckb,
                              const std::string& surface, RelationId rid) {
  const std::vector<std::string>& aliases = ckb.RelationAliases(rid);
  return ComputeRelationRow(
      signals, surface, 1 + aliases.size(),
      [&](size_t k) -> std::string_view {
        return k == 0 ? ckb.relation(rid).name : aliases[k - 1];
      });
}

// Fills \p rows with the F5 row of each candidate of \p surface, read from
// the memo (pairs the cache never registered fall back to the computation).
void RelationRows(const SignalCache& signals, const CuratedKb& ckb,
                  const std::string& surface,
                  const std::vector<RelationCandidate>& candidates,
                  std::vector<RelationRow>* rows) {
  rows->clear();
  const size_t id = signals.IdOf(surface);
  for (const auto& candidate : candidates) {
    const RelationRow* row = id == SignalCache::kUnknown
                                 ? nullptr
                                 : signals.FindRelationRow(id, candidate.id);
    rows->push_back(row != nullptr ? *row
                                   : DirectRelationRow(signals, ckb, surface,
                                                       candidate.id));
  }
}

}  // namespace

JoclGraph BuildJoclGraph(const JoclProblem& problem,
                         const SignalCache& signals, const CuratedKb& ckb,
                         const GraphBuilderOptions& options) {
  JoclGraph out;
  FactorGraph& graph = out.graph;
  graph.set_weight_count(WeightLayout::kCount);
  const FeatureMask& mask = options.features;
  const size_t n_triples = problem.triples.size();

  std::vector<FactorId> group_f_canon;
  std::vector<FactorId> group_u_trans;
  std::vector<FactorId> group_f_link;
  std::vector<FactorId> group_u_fact;
  std::vector<FactorId> group_u_cons;

  // --- canonicalization variables + F1/F2/F3 -------------------------------
  if (options.enable_canonicalization) {
    auto build_pairs =
        [&](const std::vector<SurfacePair>& pairs,
            const std::vector<std::string>& surfaces, bool is_predicate,
            const std::vector<std::vector<EntityCandidate>>* candidates,
            size_t alpha_base, std::vector<VariableId>* vars) {
          vars->reserve(pairs.size());
          for (const auto& pair : pairs) {
            VariableId v = graph.AddVariable(2);
            vars->push_back(v);
            const std::string& pa = surfaces[pair.a];
            const std::string& pb = surfaces[pair.b];
            std::vector<std::pair<WeightId, double>> feats;
            if (mask.np_idf) {
              double idf = pair.idf >= kIdfNeutralBelow ? pair.idf : 0.5;
              feats.emplace_back(alpha_base + 0, idf);
            }
            if (mask.np_emb) {
              feats.emplace_back(alpha_base + 1, signals.Emb(pa, pb));
            }
            if (mask.np_ppdb) {
              feats.emplace_back(alpha_base + 2, signals.Ppdb(pa, pb));
            }
            if (is_predicate) {
              if (mask.rp_amie) {
                feats.emplace_back(alpha_base + 3, signals.Amie(pa, pb));
              }
              if (mask.rp_kbp) {
                feats.emplace_back(alpha_base + 4, signals.Kbp(pa, pb));
              }
            } else if (mask.np_cand && candidates != nullptr) {
              // f_cand: the extension signal replacing circular
              // consistency factors on candidate-blocked pairs — the
              // agreement evidence flows into x without coupling the
              // linking variables.
              feats.emplace_back(
                  alpha_base + 3,
                  CandidateAgreement((*candidates)[pair.a],
                                     (*candidates)[pair.b]));
            }
            FactorId f =
                graph.AddFactor({v}, PairFeatureTable(feats)).ValueOrDie();
            group_f_canon.push_back(f);
          }
        };
    build_pairs(problem.subject_pairs, problem.subject_surfaces,
                /*is_predicate=*/false, &problem.subject_candidates,
                WeightLayout::kAlpha1, &out.x_vars);
    build_pairs(problem.predicate_pairs, problem.predicate_surfaces,
                /*is_predicate=*/true, nullptr, WeightLayout::kAlpha2,
                &out.y_vars);
    build_pairs(problem.object_pairs, problem.object_surfaces,
                /*is_predicate=*/false, &problem.object_candidates,
                WeightLayout::kAlpha3, &out.z_vars);
  }

  // --- transitive relation factors U1/U2/U3 ---------------------------------
  if (options.enable_canonicalization && options.enable_transitive) {
    auto build_triangles = [&](const std::vector<SurfacePair>& pairs,
                               const std::vector<VariableId>& vars,
                               WeightId beta) {
      // Adjacency with pair indices for triangle lookup.
      std::unordered_map<uint64_t, size_t> index;
      std::unordered_map<size_t, std::vector<size_t>> adjacency;
      for (size_t p = 0; p < pairs.size(); ++p) {
        index.emplace(PairKey(pairs[p].a, pairs[p].b), p);
        adjacency[pairs[p].a].push_back(pairs[p].b);
      }
      // Triangle table: 8 assignments over (x_ij, x_jk, x_ik); the score
      // depends only on the number of ones.
      std::vector<double> values(8);
      for (size_t a = 0; a < 8; ++a) {
        size_t ones = static_cast<size_t>((a & 1) != 0) +
                      static_cast<size_t>((a & 2) != 0) +
                      static_cast<size_t>((a & 4) != 0);
        values[a] = TransitiveScore(ones);
      }
      size_t emitted = 0;
      for (size_t p = 0; p < pairs.size(); ++p) {
        if (emitted >= kMaxTransitivePerRole) break;
        size_t i = pairs[p].a;
        size_t j = pairs[p].b;
        auto adj_it = adjacency.find(j);
        if (adj_it == adjacency.end()) continue;
        for (size_t k : adj_it->second) {  // j < k by pair normalization
          auto ik = index.find(PairKey(i, k));
          if (ik == index.end()) continue;
          auto jk = index.find(PairKey(j, k));
          if (jk == index.end()) continue;
          FactorId f =
              graph
                  .AddFactor({vars[p], vars[jk->second], vars[ik->second]},
                             FeatureTable::Uniform(beta, values))
                  .ValueOrDie();
          group_u_trans.push_back(f);
          if (++emitted >= kMaxTransitivePerRole) break;
        }
      }
    };
    build_triangles(problem.subject_pairs, out.x_vars, WeightLayout::kBeta1);
    build_triangles(problem.predicate_pairs, out.y_vars, WeightLayout::kBeta2);
    build_triangles(problem.object_pairs, out.z_vars, WeightLayout::kBeta3);
  }

  // --- linking variables + F4/F5/F6 ------------------------------------------
  if (options.enable_linking) {
    out.es_vars.assign(n_triples, JoclGraph::kInvalidVar);
    out.rp_vars.assign(n_triples, JoclGraph::kInvalidVar);
    out.eo_vars.assign(n_triples, JoclGraph::kInvalidVar);

    auto entity_factor_table =
        [&](const std::string& surface,
            const std::vector<EntityCandidate>& candidates,
            size_t alpha_base) {
          FeatureTable table(candidates.size() + 1);
          auto add = [&](size_t state, size_t offset, double value) {
            table.Add(state, alpha_base + offset, value);
          };
          if (mask.link_pop) add(0, 0, kNilScore);
          if (mask.link_emb) add(0, 1, kNilScore);
          if (mask.link_ppdb) add(0, 2, kNilScore);
          for (size_t c = 0; c < candidates.size(); ++c) {
            const std::string& name =
                ckb.entity(candidates[c].id).name;
            if (mask.link_pop) add(c + 1, 0, candidates[c].popularity);
            if (mask.link_emb) add(c + 1, 1, signals.Emb(surface, name));
            if (mask.link_ppdb) add(c + 1, 2, signals.Ppdb(surface, name));
          }
          return table;
        };

    std::vector<RelationRow> rows;
    auto relation_factor_table =
        [&](const std::string& surface,
            const std::vector<RelationCandidate>& candidates) {
          const size_t base = WeightLayout::kAlpha5;
          FeatureTable table(candidates.size() + 1);
          auto add = [&](size_t state, size_t offset, double value) {
            table.Add(state, base + offset, value);
          };
          if (mask.rel_ngram) add(0, 0, kRelationNilScore);
          if (mask.rel_ld) add(0, 1, kRelationNilScore);
          if (mask.rel_emb) add(0, 2, kRelationNilScore);
          if (mask.rel_ppdb) add(0, 3, kRelationNilScore);
          RelationRows(signals, ckb, surface, candidates, &rows);
          for (size_t c = 0; c < candidates.size(); ++c) {
            if (mask.rel_ngram) add(c + 1, 0, rows[c].ngram);
            if (mask.rel_ld) add(c + 1, 1, rows[c].ld);
            if (mask.rel_emb) add(c + 1, 2, rows[c].emb);
            if (mask.rel_ppdb) add(c + 1, 3, rows[c].ppdb);
          }
          return table;
        };

    for (size_t t = 0; t < n_triples; ++t) {
      size_t s_surf = problem.subject_of[t];
      size_t p_surf = problem.predicate_of[t];
      size_t o_surf = problem.object_of[t];

      VariableId es = graph.AddVariable(
          problem.subject_candidates[s_surf].size() + 1);
      VariableId rp = graph.AddVariable(
          problem.predicate_candidates[p_surf].size() + 1);
      VariableId eo = graph.AddVariable(
          problem.object_candidates[o_surf].size() + 1);
      out.es_vars[t] = es;
      out.rp_vars[t] = rp;
      out.eo_vars[t] = eo;

      group_f_link.push_back(
          graph
              .AddFactor({es},
                         entity_factor_table(problem.subject_surfaces[s_surf],
                                             problem.subject_candidates[s_surf],
                                             WeightLayout::kAlpha4))
              .ValueOrDie());
      group_f_link.push_back(
          graph
              .AddFactor({rp},
                         relation_factor_table(
                             problem.predicate_surfaces[p_surf],
                             problem.predicate_candidates[p_surf]))
              .ValueOrDie());
      group_f_link.push_back(
          graph
              .AddFactor({eo},
                         entity_factor_table(problem.object_surfaces[o_surf],
                                             problem.object_candidates[o_surf],
                                             WeightLayout::kAlpha6))
              .ValueOrDie());

      // U4 fact inclusion over (es, rp, eo).
      if (options.enable_fact_inclusion) {
        const auto& s_cands = problem.subject_candidates[s_surf];
        const auto& p_cands = problem.predicate_candidates[p_surf];
        const auto& o_cands = problem.object_candidates[o_surf];
        size_t cs = s_cands.size() + 1;
        size_t cp = p_cands.size() + 1;
        size_t co = o_cands.size() + 1;
        std::vector<double> values(cs * cp * co, kFactLow);
        for (size_t a = 1; a < cs; ++a) {
          for (size_t b = 1; b < cp; ++b) {
            for (size_t c = 1; c < co; ++c) {
              if (ckb.HasFact(s_cands[a - 1].id, p_cands[b - 1].id,
                              o_cands[c - 1].id)) {
                values[(a * cp + b) * co + c] = kFactHigh;
              }
            }
          }
        }
        group_u_fact.push_back(
            graph
                .AddFactor({es, rp, eo},
                           FeatureTable::Uniform(WeightLayout::kBeta4,
                                                 std::move(values)))
                .ValueOrDie());
      }
    }
  }

  // --- consistency factors U5/U6/U7 --------------------------------------------
  if (options.enable_canonicalization && options.enable_linking &&
      options.enable_consistency) {
    // Local triple index of each surface's representative mention.
    auto build_consistency =
        [&]<typename Candidate>(
            const std::vector<SurfacePair>& pairs,
            const std::vector<VariableId>& pair_vars,
            const std::vector<size_t>& representative,
            const std::vector<VariableId>& link_vars,
            const std::vector<std::vector<Candidate>>& candidates,
            WeightId beta) {
          for (size_t p = 0; p < pairs.size(); ++p) {
            // Candidate-blocked pairs exist *because* they share a
            // candidate; their consistency factors are dampened to avoid
            // rewarding that agreement circularly.
            double swing = 1.0;
            if (pairs[p].candidate_blocked) {
              swing = kConsistencyCandidateDamping;
            }
            size_t rep_a = representative[pairs[p].a];
            size_t rep_b = representative[pairs[p].b];
            VariableId link_a = link_vars[rep_a];
            VariableId link_b = link_vars[rep_b];
            const auto& cands_a = candidates[pairs[p].a];
            const auto& cands_b = candidates[pairs[p].b];
            size_t ca = cands_a.size() + 1;
            size_t cb = cands_b.size() + 1;
            // Scope (link_a, link_b, x); x is the fastest index.
            std::vector<double> values(ca * cb * 2);
            for (size_t a = 0; a < ca; ++a) {
              for (size_t b = 0; b < cb; ++b) {
                int64_t id_a = a == 0 ? kNilId : cands_a[a - 1].id;
                int64_t id_b = b == 0 ? kNilId : cands_b[b - 1].id;
                double same_score;
                double diff_score;
                if (id_a == kNilId && id_b == kNilId) {
                  // Two NILs say nothing about co-reference.
                  same_score = kConsistencyNeutral;
                  diff_score = kConsistencyNeutral;
                } else if (id_a == id_b) {
                  same_score = kConsistencyHigh;
                  diff_score = kConsistencyLow;
                } else {
                  same_score = kConsistencyLow;
                  diff_score = kConsistencyHigh;
                }
                // Dampen the swing for candidate-blocked pairs.
                diff_score = kConsistencyNeutral +
                             (diff_score - kConsistencyNeutral) * swing;
                same_score = kConsistencyNeutral +
                             (same_score - kConsistencyNeutral) * swing;
                values[(a * cb + b) * 2 + 0] = diff_score;  // x = 0
                values[(a * cb + b) * 2 + 1] = same_score;  // x = 1
              }
            }
            group_u_cons.push_back(
                graph
                    .AddFactor({link_a, link_b, pair_vars[p]},
                               FeatureTable::Uniform(beta, std::move(values)))
                    .ValueOrDie());
          }
        };
    build_consistency(problem.subject_pairs, out.x_vars, problem.subject_rep,
                      out.es_vars, problem.subject_candidates,
                      WeightLayout::kBeta5);
    build_consistency(problem.predicate_pairs, out.y_vars,
                      problem.predicate_rep, out.rp_vars,
                      problem.predicate_candidates, WeightLayout::kBeta6);
    build_consistency(problem.object_pairs, out.z_vars, problem.object_rep,
                      out.eo_vars, problem.object_candidates,
                      WeightLayout::kBeta7);
  }

  // --- schedule (paper §3.4 working procedure) ---------------------------------
  for (auto* group : {&group_f_canon, &group_u_trans, &group_f_link,
                      &group_u_fact, &group_u_cons}) {
    if (!group->empty()) out.schedule.push_back(std::move(*group));
  }

  JOCL_LOG(kDebug) << "graph: " << graph.variable_count() << " variables, "
                   << graph.factor_count() << " factors";
  return out;
}

}  // namespace jocl

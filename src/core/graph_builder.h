#ifndef JOCL_CORE_GRAPH_BUILDER_H_
#define JOCL_CORE_GRAPH_BUILDER_H_

#include <cstddef>
#include <vector>

#include "core/feature_config.h"
#include "core/problem.h"
#include "graph/factor_graph.h"

namespace jocl {

/// \brief Structural switches of the JOCL graph (the paper's ablations).
struct GraphBuilderOptions {
  /// Emit canonicalization variables + F1/F2/F3 (+U1..U3).
  bool enable_canonicalization = true;
  /// Emit linking variables + F4/F5/F6 (+U4).
  bool enable_linking = true;
  /// Emit U1..U3 transitive-relation factors.
  bool enable_transitive = true;
  /// Emit the U4 fact-inclusion factor.
  bool enable_fact_inclusion = true;
  /// Emit U5..U7 consistency factors (Table 4 removes these).
  bool enable_consistency = true;
  /// Attach consistency factors to candidate-blocked pairs too. Those
  /// pairs exist because the surfaces share a candidate, so a full-swing
  /// consistency factor would reward that agreement circularly; with the
  /// agreement evidence also flowing through f_cand, these factors get a
  /// dampened swing (see consistency_candidate_damping).
  bool consistency_on_candidate_pairs = true;
  /// Swing multiplier for consistency factors on candidate-blocked pairs:
  /// scores are pulled toward neutral by this factor (0 = fully neutral,
  /// 1 = the paper's full 0.7/0.3 swing).
  double consistency_candidate_damping = 0.5;
  /// Which feature functions feed F1..F6 (Table 5 variants).
  FeatureMask features = FeatureMask::All();

  /// IDF similarities below this feed F1/F2/F3 as a neutral 0.5 instead of
  /// their raw value. The paper's pair variables all sit at IDF >= 0.5, so
  /// its f_idf never argues *against* a merge; our side-info-blocked pairs
  /// (acronyms, nicknames) would otherwise be vetoed by the one signal
  /// that is structurally blind to them. Safe only because predicate
  /// blocking excludes self-confirming buckets (see
  /// ProblemBuilder::ActivateSurface).
  double idf_neutral_below = 0.5;

  /// Heuristic factor scores (paper §3.1.5, §3.2.5, §3.3).
  double transitive_high = 0.9;
  double transitive_mid = 0.5;
  double transitive_low = 0.1;
  double fact_high = 0.9;
  double fact_low = 0.1;
  double consistency_high = 0.7;
  double consistency_low = 0.3;
  /// Score when both linking variables of a consistency factor are NIL:
  /// neither evidence for nor against co-reference.
  double consistency_neutral = 0.5;

  /// Feature value assigned to the NIL state of entity linking variables
  /// (acts as the prior the candidates must beat).
  double nil_score = 0.35;
  /// NIL prior for relation linking variables. Lower than the entity one:
  /// relation candidate scores are surface similarities that rarely exceed
  /// ~0.5 even for correct readings, so an equal prior would over-predict
  /// NIL.
  double relation_nil_score = 0.22;

  /// Cap on transitive factors per role (triangles are selected
  /// deterministically by pair order).
  size_t max_transitive_per_role = 60000;
};

/// \brief The built factor graph plus the variable bookkeeping needed for
/// labeling (learning) and decoding (inference).
struct JoclGraph {
  FactorGraph graph;

  /// Pair variables per role, aligned with the problem's pair vectors;
  /// kInvalidVar when canonicalization is disabled.
  std::vector<VariableId> x_vars;  // subject pairs
  std::vector<VariableId> y_vars;  // predicate pairs
  std::vector<VariableId> z_vars;  // object pairs

  /// Linking variables per local triple; kInvalidVar when disabled.
  /// State 0 is NIL; state k>0 is the (k-1)-th candidate of the mention's
  /// surface.
  std::vector<VariableId> es_vars;
  std::vector<VariableId> rp_vars;
  std::vector<VariableId> eo_vars;

  /// The paper's message schedule: {F1,F2,F3}, {U1,U2,U3}, {F4,F5,F6},
  /// {U4}, {U5,U6,U7} — groups that are empty (ablated) are dropped.
  std::vector<std::vector<FactorId>> schedule;

  static constexpr VariableId kInvalidVar = static_cast<VariableId>(-1);
};

class SignalCache;

/// \brief Materializes the JOCL factor graph for a problem. Signal queries
/// hit the per-surface memoized cache (unit-vector dot products, interned
/// PPDB/AMIE/KBP lookups, memoized F5 relation rows); build it with
/// SignalCache::ForProblem over the same problem.
JoclGraph BuildJoclGraph(const JoclProblem& problem,
                         const SignalCache& signals, const CuratedKb& ckb,
                         const GraphBuilderOptions& options = {});

}  // namespace jocl

#endif  // JOCL_CORE_GRAPH_BUILDER_H_

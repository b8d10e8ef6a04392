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
  /// Which feature functions feed F1..F6 (Table 5 variants).
  FeatureMask features = FeatureMask::All();
};

// ---- fixed factor scores of the graph (paper §3.1.5, §3.2.5, §3.3) ------

/// Consistency factors attach to candidate-blocked pairs too. Those pairs
/// exist because the surfaces share a candidate, so a full-swing factor
/// would reward that agreement circularly; with the agreement evidence
/// also flowing through f_cand, their swing is pulled toward neutral by
/// this factor (0 = fully neutral, 1 = the paper's full 0.7/0.3 swing).
inline constexpr double kConsistencyCandidateDamping = 0.5;

/// IDF similarities below this feed F1/F2/F3 as a neutral 0.5 instead of
/// their raw value. The paper's pair variables all sit at IDF >= 0.5, so
/// its f_idf never argues *against* a merge; our side-info-blocked pairs
/// (acronyms, nicknames) would otherwise be vetoed by the one signal that
/// is structurally blind to them. Safe only because predicate blocking
/// excludes self-confirming buckets (see ProblemBuilder::ActivateSurface).
inline constexpr double kIdfNeutralBelow = 0.5;

/// Transitive triangle scores: all three pairs same (high), exactly two
/// (low, a violation), otherwise neutral (mid).
inline constexpr double kTransitiveHigh = 0.9;
inline constexpr double kTransitiveMid = 0.5;
inline constexpr double kTransitiveLow = 0.1;
/// U4 scores of a (subject, relation, object) link triple that is / is
/// not a CKB fact.
inline constexpr double kFactHigh = 0.9;
inline constexpr double kFactLow = 0.1;
/// U5..U7 scores when the pair's link agreement matches / contradicts its
/// same-meaning state.
inline constexpr double kConsistencyHigh = 0.7;
inline constexpr double kConsistencyLow = 0.3;
/// Score when both linking variables of a consistency factor are NIL:
/// neither evidence for nor against co-reference.
inline constexpr double kConsistencyNeutral = 0.5;

/// Feature value assigned to the NIL state of entity linking variables
/// (acts as the prior the candidates must beat).
inline constexpr double kNilScore = 0.35;
/// NIL prior for relation linking variables. Lower than the entity one:
/// relation candidate scores are surface similarities that rarely exceed
/// ~0.5 even for correct readings, so an equal prior would over-predict
/// NIL.
inline constexpr double kRelationNilScore = 0.22;

/// Cap on transitive factors per role (triangles are selected
/// deterministically by pair order).
inline constexpr size_t kMaxTransitivePerRole = 60000;

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

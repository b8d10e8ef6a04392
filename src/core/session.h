#ifndef JOCL_CORE_SESSION_H_
#define JOCL_CORE_SESSION_H_

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "core/problem_builder.h"
#include "core/runtime.h"

namespace jocl {

/// \brief Execution knobs of the streaming session (orthogonal to the
/// model configuration in JoclOptions).
struct SessionOptions {
  /// Worker threads running dirty shards: 1 = sequential, 0 = one per
  /// hardware thread. Purely an execution choice.
  size_t num_threads = 0;
  /// Worker threads for the front-end's parallel stages (candidate
  /// generation, similarity evaluation, dirty-shard materialization):
  /// 1 = sequential, 0 = one per hardware thread. Results are
  /// byte-identical for any setting.
  size_t frontend_threads = 0;
};

/// \brief Per-batch report of one AddTriples / RemoveTriples /
/// UpdateWeights call. The PipelineStats stages read as in the runtime,
/// except that `partition_seconds` also covers the reuse guard and
/// dirty-shard materialization, and the shape and kernel
/// fields cover *dirty* shards only (clean shards spend no kernel work —
/// their beliefs come from the store).
struct SessionStats : PipelineStats {
  size_t added = 0;                ///< triples actually added
  size_t removed = 0;              ///< triples actually removed
  size_t dirty_shards = 0;         ///< shards re-inferred this batch
  size_t clean_shards = 0;         ///< shards served from cached beliefs
  /// Clean shards reused by the provably-clean skip, without the
  /// structural compare (the rest of clean_shards passed the compare).
  size_t skipped_guards = 0;
  size_t cache_new_phrases = 0;    ///< phrases newly ingested by the cache
  /// Candidate lookups this batch: every active surface is consulted once
  /// per role, a hit when the session generated its candidates in an
  /// earlier consultation and a miss when it had to generate them now. A
  /// healthy incremental batch is hit-dominated — misses only for
  /// genuinely new surfaces. A miss-heavy steady state is an
  /// incremental-ingestion regression (jocl_stream reports these per
  /// batch for CI visibility).
  size_t problem_cache_hits = 0;
  size_t problem_cache_misses = 0;
  /// True when the batch skipped the front-end entirely because the
  /// active set was unchanged (UpdateWeights re-inference): the persisted
  /// problem was reused verbatim.
  bool frontend_reused = false;
};

/// \brief Long-lived incremental runtime over one dataset: the streaming
/// counterpart of `JoclRuntime::Infer` (ROADMAP: continuously-arriving
/// traffic; open KBs grow by ingestion batches).
///
/// A session holds the active triple set, an append-only `SignalCache`,
/// a persistent `ProblemBuilder`, and the solved beliefs of every
/// connected component it has inferred. `AddTriples` / `RemoveTriples`
/// update the active set, patch the global problem by the batch's delta,
/// label its components with `ComputeProblemComponents` (the runtime's
/// partition, so session and one-shot shards agree by construction), and
/// re-run inference
/// **only over dirty shards** — components whose triple set or local
/// problem changed. Clean components are served from the store; a batch
/// that merges two components dirties just the merged shard, and a
/// removal that splits one restores its pre-merge components from the
/// store when they are still cached.
///
/// **Cold-restart equivalence.** The global problem is a deterministic
/// function of the active triple set (blocking statistics and candidate
/// generation are dataset-global, not subset-dependent), per-component
/// beliefs are a pure function of the local problem + weights, and the
/// decode runs globally. Hence a session that reached an active set
/// through *any* sequence of batches produces a result byte-identical to
/// one-shot `JoclRuntime::Infer` over that set (asserted for
/// K ∈ {1, 4, 16} ingestion batches in `tests/session_test.cc`). Reuse is
/// guarded by structural equality of the cached local problem, never by a
/// fingerprint, so the guarantee survives global blocking-cap effects.
///
/// The decode stage stays global: cluster labels are globally dense, so
/// any "partial" decode would re-densify everything anyway. The
/// dirty-shard restriction makes per-shard graph build + LBP cheap on tail
/// batches, so there the decode is the largest stage: 0.19 of a 0.50 ms
/// steady-state 9-triple tail add at scale 0.35 on one thread, against
/// 0.05 ms for the shards (docs/architecture.md). Head batches stay
/// LBP-bound. The steady-state refresh recycles the previous batch's
/// problem, shard plan and belief arrays instead of reallocating them.
class JoclSession {
 public:
  /// \p dataset and \p signals must outlive the session. \p weights empty
  /// = Jocl::DefaultWeights(); weights stay fixed across ingestion
  /// batches (cached beliefs are only valid for the weights that produced
  /// them) and change only through UpdateWeights, which invalidates the
  /// belief store wholesale.
  JoclSession(const Dataset* dataset, const SignalBundle* signals,
              JoclOptions options = {}, SessionOptions session = {},
              std::vector<double> weights = {});

  /// Ingests a batch of dataset triple indices (already-active and
  /// duplicate ids are ignored) and re-infers dirty shards. The updated
  /// result is available via result().
  Status AddTriples(const std::vector<size_t>& batch,
                    SessionStats* stats = nullptr);

  /// Retires a batch of dataset triple indices (inactive ids are
  /// ignored) and re-infers dirty shards.
  Status RemoveTriples(const std::vector<size_t>& batch,
                       SessionStats* stats = nullptr);

  /// Hot-swaps the session onto \p weights (empty =
  /// Jocl::DefaultWeights()): drops every cached component belief (they
  /// are only valid for the weights that produced them), re-infers the
  /// whole active set under the new weights, and fires the publish
  /// callback — the learn → infer → serve loop's last hop, letting a
  /// retrain reach a live `jocl_serve` store without restarting the
  /// session. Identical weights are a no-op (result and generation
  /// unchanged). The refreshed state is byte-identical to a cold session
  /// built with \p weights from the start (tested in
  /// tests/learner_runtime_test.cc).
  Status UpdateWeights(std::vector<double> weights,
                       SessionStats* stats = nullptr);

  /// The current joint result over the active triple set. Valid after the
  /// first successful mutation; empty before.
  const JoclResult& result() const { return result_; }

  /// The current global problem (aligned with result()) — what serving-
  /// layer publishers index (`BuildCanonStore(session.problem(),
  /// session.result(), ...)`). Valid after the first successful mutation.
  const JoclProblem& problem() const { return problem_; }

  /// Monotonic count of successful mutations (the publication stamp).
  size_t generation() const { return generation_; }

  /// Invoked after every successful AddTriples / RemoveTriples, once the
  /// session's problem/result/stats are consistent — the publish hook the
  /// serving layer hangs snapshot emission and store swaps on. Runs on
  /// the mutating thread; keep it cheap relative to a batch (building +
  /// swapping a CanonStore is). Pass nullptr to clear.
  void SetPublishCallback(std::function<void(const JoclSession&)> callback) {
    publish_callback_ = std::move(callback);
  }

  /// The active dataset triple indices, ascending.
  const std::vector<size_t>& active_triples() const { return active_; }

  /// Solved components currently cached (includes stale ones retained for
  /// split-reuse; an entry unused for more than 8 consecutive batches is
  /// evicted).
  size_t cached_components() const { return store_.size(); }

  const JoclOptions& options() const { return options_; }
  const SessionOptions& session_options() const { return session_; }
  const std::vector<double>& weights() const { return weights_; }

 private:
  /// A solved connected component: the exact local problem it was solved
  /// for (the reuse guard) and its beliefs in local indexing.
  struct SolvedComponent {
    JoclProblem problem;
    ShardBeliefs beliefs;
    /// The last generation whose partition held this component (stale
    /// eviction).
    size_t last_used = 0;
  };

  /// Delta rebuild + partition + dirty-shard inference + global decode. \p added / \p removed are the batch's disjoint sorted triple
  /// ids (both empty = weights-only refresh over the unchanged set).
  Status Refresh(const std::vector<size_t>& added,
                 const std::vector<size_t>& removed, SessionStats* stats);

  const Dataset* dataset_;
  const SignalBundle* signals_;
  JoclOptions options_;
  SessionOptions session_;
  std::vector<double> weights_;

  std::vector<size_t> active_;  ///< sorted, deduplicated
  SignalCache cache_;           ///< append-only, spans all batches

  /// The O(Δ) problem front end, fed the batch deltas.
  ProblemBuilder builder_;
  /// Whether the previous non-reuse batch truncated the pair lists. A
  /// truncating batch stores shard bodies cut by a *global* similarity
  /// rank, so the provably-clean skip must stand down until one full
  /// non-truncating batch has re-verified every shard.
  bool prev_overflow_ = false;

  JoclProblem problem_;  ///< current global problem
  JoclBeliefs beliefs_;  ///< current global beliefs
  JoclResult result_;    ///< current decoded result
  /// The shard plan (index maps, plus the bodies of dirty shards), refilled
  /// in place every batch (between batches it holds stale index maps, and
  /// no reader looks at it).
  ShardPlan plan_;

  /// Solved components keyed by their sorted dataset-triple-id list.
  std::map<std::vector<size_t>, SolvedComponent> store_;
  size_t generation_ = 0;
  std::function<void(const JoclSession&)> publish_callback_;
};

}  // namespace jocl

#endif  // JOCL_CORE_SESSION_H_

#ifndef JOCL_CORE_RUNTIME_H_
#define JOCL_CORE_RUNTIME_H_

#include <cstddef>
#include <vector>

#include "core/decode.h"
#include "core/jocl.h"
#include "core/shard.h"
#include "core/signal_cache.h"

namespace jocl {

/// \brief Stage seconds, shape facts and kernel counters shared by one
/// runtime execution and one session batch. Every `*_seconds` field is
/// written only by the closing `ScopedSpan` of the stage it names (the
/// span of the same name in a `--trace-out` dump), so a stat and its
/// spans never disagree.
struct PipelineStats {
  double problem_seconds = 0.0;    ///< problem build ("build_problem")
  double cache_seconds = 0.0;      ///< SignalCache build ("signal_cache")
  double partition_seconds = 0.0;  ///< sharding ("partition")
  double shard_seconds = 0.0;      ///< shard build→infer→scatter, wall
                                   ///< ("run_shards")
  /// Graph building + engine setup summed across inferred shards
  /// ("build_graph" + "compile"). Accumulated over all workers, so with
  /// several threads this exceeds the wall-clock share of shard_seconds
  /// it represents.
  double graph_seconds = 0.0;
  /// Engine Run + belief extraction summed across inferred shards
  /// ("infer"; same accumulated-over-workers caveat).
  double infer_seconds = 0.0;
  double decode_seconds = 0.0;  ///< global decode ("decode")
  size_t shards = 0;            ///< shards in the partition
  size_t variables = 0;         ///< across inferred shard graphs
  size_t factors = 0;
  // ---- LBP kernel counters, summed across inferred shards ---------------
  size_t message_updates = 0;  ///< factor message updates executed
  size_t residual_pops = 0;    ///< residual-queue pops
  size_t sweeps_skipped = 0;   ///< sweeps' worth of updates not spent
  size_t log_space_updates = 0;  ///< range-guarded sum-product updates
  size_t unconverged_components = 0;  ///< components stopped on the budget
};

/// \brief One `JoclRuntime::Infer` run (consumed by bench_scaling and
/// the CLI).
struct RuntimeStats : PipelineStats {
  size_t components = 0;  ///< independent sub-problems
};

/// \brief One shard's inference outputs in *local* indexing — the unit of
/// work `JoclRuntime` scatters into the global result and the unit of
/// caching `JoclSession` reuses across ingestion batches.
struct ShardBeliefs {
  /// Pair marginals/states aligned with the local problem's pair vectors
  /// (empty when canonicalization is ablated).
  std::vector<std::vector<double>> x_marg, y_marg, z_marg;
  std::vector<size_t> x_state, y_state, z_state;
  /// Linking marginals/states aligned with the local problem's triples
  /// (empty when linking is ablated).
  std::vector<std::vector<double>> es_marg, rp_marg, eo_marg;
  std::vector<size_t> es_state, rp_state, eo_state;
  /// Convergence record (marginals cleared; the vectors above carry them).
  LbpResult diagnostics;
  size_t variables = 0;
  size_t factors = 0;
  double graph_seconds = 0.0;  ///< "build_graph" + "compile" spans
  double infer_seconds = 0.0;  ///< "infer" span
};

/// \brief Builds the graph of one shard-local problem and infers it, returning
/// its beliefs in local indexing. Pure function of (local problem, cache
/// answers, options, weights) — which is what makes session-side belief
/// reuse byte-exact. \p engine_threads is the component-parallel
/// thread count inside the engine (bit-identical for every value).
ShardBeliefs RunShardInference(const JoclProblem& local,
                               const SignalCache& cache, const CuratedKb& ckb,
                               const JoclOptions& options,
                               const std::vector<double>& weights,
                               size_t engine_threads);

/// \brief Sizes the global belief arrays for \p problem according to the
/// enabled factor families.
void SizeJoclBeliefs(const JoclProblem& problem,
                     const GraphBuilderOptions& builder, JoclBeliefs* beliefs);

/// \brief Scatters one shard's local beliefs into the global arrays via
/// the shard's strictly-increasing local→global maps. Shards partition
/// the pair and triple spaces, so concurrent scatters touch disjoint
/// slots.
void ScatterShardBeliefs(const ProblemShard& shard, const ShardBeliefs& local,
                         const GraphBuilderOptions& builder,
                         JoclBeliefs* beliefs);

/// \brief Folds one shard's convergence diagnostics into \p merged.
/// max/AND/sum/elementwise-max are associative and commutative, so any fold
/// order reproduces the monolithic engine's own aggregation bit for bit.
void MergeShardDiagnostics(const LbpResult& shard, LbpResult* merged);

/// \brief Folds a shard inferred this run into \p merged and adds its
/// shape, kernel counters and graph/infer seconds to \p stats.
void FoldShardRun(const ShardBeliefs& shard, LbpResult* merged,
                  PipelineStats* stats);

/// \brief Engine threads per shard when \p shards shards run on \p threads
/// pool workers: with fewer shards than threads (the extreme: one shard)
/// the leftover parallelism moves inside each engine, whose
/// component-parallel execution is bit-identical to sequential.
size_t EngineThreadsPerShard(size_t threads, size_t shards);

/// \brief Records a finished run's LBP kernel counters and convergence
/// certificate (\p certificate: max pending residual of the result) on
/// the process-wide registry — the `jocl_lbp_*` families the runtime and
/// the session share.
void MirrorLbpStats(const PipelineStats& stats, double certificate);

/// \brief Records the shape of a decoded result on the process-wide
/// registry: `jocl_decode_largest_cluster{kind="np"|"rp"}`, the mention
/// count of the largest NP / RP cluster, and
/// `jocl_decode_nil_link_ratio{kind="np"|"rp"}`, the share of NP / RP
/// mentions linked to NIL (0 for an empty result). Set by the runtime and
/// the session after every decode.
void MirrorDecodeStats(const JoclResult& result);

/// \brief Assembles the final JoclResult from merged global beliefs:
/// canonical marginal order (subject/predicate/object pairs, then
/// es/rp/eo per triple) and the global decode (`DecodeJointResult`).
/// \p diagnostics is the already-merged convergence record (its marginals
/// field is overwritten here). The decode runs sequentially on the calling
/// thread; \p decode_threads is ignored and stays only for source
/// compatibility with existing callers.
JoclResult AssembleJoclResult(const JoclProblem& problem,
                              const JoclBeliefs& beliefs,
                              const JoclOptions& options,
                              std::vector<double> weights,
                              LbpResult diagnostics,
                              size_t decode_threads = 1);

/// \brief The sharded end-to-end runtime (ROADMAP "production-scale"
/// path): builds the problem and the signal cache once, partitions into
/// independent shards, runs build→infer→decode per shard on a
/// worker pool, and merges per-shard beliefs into globally stable cluster
/// labels and links.
///
/// Shard graphs are exactly the connected components of the monolithic
/// factor graph and the decode runs globally over merged
/// beliefs, so the result is byte-identical for every (num_threads,
/// max_shards) combination — including the monolithic max_shards = 1.
/// `Jocl::Infer` is a thin wrapper over this class; `JoclSession`
/// (core/session.h) is its long-lived streaming counterpart.
class JoclRuntime {
 public:
  explicit JoclRuntime(JoclOptions options = {}, RuntimeOptions runtime = {});

  /// Joint inference over the given triples with the given weights (empty
  /// = Jocl::DefaultWeights()). A triple id >= dataset.okb.size() is
  /// InvalidArgument. \p stats, when non-null, receives stage timings.
  Result<JoclResult> Infer(const Dataset& dataset,
                           const SignalBundle& signals,
                           const std::vector<size_t>& triple_subset,
                           std::vector<double> weights = {},
                           RuntimeStats* stats = nullptr) const;

  const JoclOptions& options() const { return options_; }
  const RuntimeOptions& runtime_options() const { return runtime_; }

 private:
  JoclOptions options_;
  RuntimeOptions runtime_;
};

}  // namespace jocl

#endif  // JOCL_CORE_RUNTIME_H_

#ifndef JOCL_CORE_JOCL_H_
#define JOCL_CORE_JOCL_H_

#include <cstddef>
#include <vector>

#include "core/graph_builder.h"
#include "core/problem.h"
#include "core/signals.h"
#include "graph/learner.h"

namespace jocl {

/// \brief Execution knobs of the sharded runtime and the sharded learner
/// (orthogonal to the model configuration in JoclOptions; no setting
/// changes the result).
struct RuntimeOptions {
  /// Worker threads running shards (inference) or expectation passes
  /// (learning): 1 = sequential, 0 = one per hardware thread, n = n
  /// workers.
  size_t num_threads = 0;
  /// Shard count: 0 = one shard per independent sub-problem, 1 = the
  /// monolithic single-graph run (the learner: everything in one
  /// sequential work bin), n = components packed into n shards.
  size_t max_shards = 0;
};

/// \brief End-to-end configuration of the JOCL pipeline.
struct JoclOptions {
  ProblemOptions problem;
  GraphBuilderOptions builder;
  /// Weight learning (paper §3.4): gradient ascent at lr 0.05 with
  /// LBP-approximated expectations. Each clamped and free pass runs the
  /// residual schedule on a budget of 8 sweeps' worth of updates per
  /// component (`learner.lbp`). `ShardedLearner` runs each component's
  /// engine on one thread, whatever `learner.lbp.num_threads` says: its
  /// parallelism lives across components (`RuntimeOptions`).
  LearnerOptions learner;
  /// Inference-time LBP (paper: converges within 20 sweeps). The same
  /// residual schedule on a 20-sweep budget, which certifies convergence
  /// on the head component too (LbpResult::final_residual).
  LbpOptions inference;
  /// Unread by the library (the joint pass runs FlatLbpEngine); remains
  /// only for jbench/main.cc's CreateInferenceEngine call.
  InferenceBackend inference_backend = InferenceBackend::kLbp;
  /// Learning-graph size cap: the validation split is subsampled to at most
  /// this many triples (deterministically) to bound training cost.
  size_t max_learning_triples = 300;
  /// Shard-level worker threads of the end-to-end runtime (0 = one per
  /// hardware thread, 1 = sequential). Purely an execution choice: the
  /// runtime's output is byte-identical for every setting.
  size_t runtime_threads = 0;
  uint64_t seed = 17;

  JoclOptions() {
    learner.learning_rate = 0.05;  // paper §4.1
    learner.iterations = 15;
    learner.l2 = 0.08;             // stay close to the uniform prior
    learner.lbp.max_iterations = 8;
    inference.max_iterations = 20;
    inference.num_threads = 0;
  }

  /// Table 4 variant "JOCLcano": canonicalization factors only.
  static JoclOptions CanonicalizationOnly();
  /// Table 4 variant "JOCLlink": linking factors only.
  static JoclOptions LinkingOnly();
  /// Full JOCL without the consistency factors (no interaction), used to
  /// isolate the interaction's contribution.
  static JoclOptions WithoutConsistency();
};

/// \brief Joint output of the pipeline over a triple subset.
///
/// Mention order: NP mentions are (subject of t0, object of t0, subject of
/// t1, ...) over the subset's triples in ascending-triple order; RP
/// mentions are one per triple in the same order.
struct JoclResult {
  /// Canonicalization: cluster label per NP mention.
  std::vector<size_t> np_cluster;
  /// Cluster label per RP mention.
  std::vector<size_t> rp_cluster;
  /// Linking: CKB entity id (or kNilId) per NP mention.
  std::vector<int64_t> np_link;
  /// CKB relation id (or kNilId) per RP mention.
  std::vector<int64_t> rp_link;
  /// The triples covered, ascending (mention vectors align with these).
  std::vector<size_t> triples;
  /// LBP diagnostics of the inference pass.
  LbpResult diagnostics;
  /// Weights used at inference time.
  std::vector<double> weights;
};

/// \brief The JOCL pipeline (paper §3): build the joint factor graph over
/// an OKB + CKB, learn shared weights on the labeled validation split, run
/// LBP (residual schedule), and decode marginals: pair-graph clusters and
/// each mention's own argmax link.
///
/// Infer() is a thin wrapper over the sharded `JoclRuntime`
/// (core/runtime.h): the problem is partitioned into independent
/// sub-problems that run build→infer→decode on a worker pool over
/// a precomputed `SignalCache`, then merge into globally stable labels.
class Jocl {
 public:
  explicit Jocl(JoclOptions options = {});

  /// Uniform initial weights (1.0 everywhere) — the weights used when no
  /// validation data exists.
  static std::vector<double> DefaultWeights();

  /// Learns weights from `dataset.validation_triples` (paper protocol:
  /// the 20%-of-entities ReVerb45K split) on the sharded learning runtime
  /// (`ShardedLearner`, core/sharded_learner.h) — component-parallel
  /// expectation passes on `runtime_threads` workers, with byte-identical
  /// weights for every thread count. Returns DefaultWeights() when the
  /// data set has no validation split.
  Result<std::vector<double>> LearnWeights(const Dataset& dataset,
                                           const SignalBundle& signals) const;

  /// Joint inference over the given triples with the given weights (empty
  /// = DefaultWeights()).
  Result<JoclResult> Infer(const Dataset& dataset,
                           const SignalBundle& signals,
                           const std::vector<size_t>& triple_subset,
                           std::vector<double> weights = {}) const;

  /// Convenience: LearnWeights on the validation split then Infer on the
  /// given subset.
  Result<JoclResult> Run(const Dataset& dataset, const SignalBundle& signals,
                         const std::vector<size_t>& triple_subset) const;

  const JoclOptions& options() const { return options_; }

 private:
  JoclOptions options_;
};

}  // namespace jocl

#endif  // JOCL_CORE_JOCL_H_

#include "core/jocl.h"

#include <algorithm>
#include <utility>

#include "core/runtime.h"
#include "core/sharded_learner.h"
#include "core/signal_cache.h"
#include "util/logging.h"
#include "util/rng.h"

namespace jocl {

JoclOptions JoclOptions::CanonicalizationOnly() {
  JoclOptions options;
  options.builder.enable_linking = false;
  options.builder.enable_consistency = false;
  options.builder.enable_fact_inclusion = false;
  return options;
}

JoclOptions JoclOptions::LinkingOnly() {
  JoclOptions options;
  options.builder.enable_canonicalization = false;
  options.builder.enable_transitive = false;
  options.builder.enable_consistency = false;
  return options;
}

JoclOptions JoclOptions::WithoutConsistency() {
  JoclOptions options;
  options.builder.enable_consistency = false;
  return options;
}

Jocl::Jocl(JoclOptions options) : options_(std::move(options)) {}

std::vector<double> Jocl::DefaultWeights() {
  return std::vector<double>(WeightLayout::kCount, 1.0);
}

Result<std::vector<double>> Jocl::LearnWeights(
    const Dataset& dataset, const SignalBundle& signals) const {
  if (dataset.validation_triples.empty()) return DefaultWeights();

  // Deterministic subsample of the validation split.
  std::vector<size_t> subset = dataset.validation_triples;
  if (subset.size() > options_.max_learning_triples) {
    Rng rng(options_.seed);
    rng.Shuffle(&subset);
    subset.resize(options_.max_learning_triples);
  }

  // The sharded learner partitions the labeled problem, builds one
  // graph per component through the SignalCache path, and runs
  // the clamped/free passes component-parallel — the learning-side twin of
  // the Infer runtime below (same thread knob, same determinism).
  ShardedLearner learner(options_, RuntimeOptions{options_.runtime_threads,
                                                  /*max_shards=*/0});
  LearnerRunStats learn_stats;
  Result<LearnerResult> learned =
      learner.Learn(dataset, signals, subset, DefaultWeights(), &learn_stats);
  if (!learned.ok()) return learned.status();
  JOCL_LOG(kInfo) << "learned weights over " << learn_stats.labels
                  << " labels (" << learn_stats.components
                  << " components) in " << learned.ValueOrDie().trace.size()
                  << " iterations";
  return learned.MoveValueOrDie().weights;
}

Result<JoclResult> Jocl::Infer(const Dataset& dataset,
                               const SignalBundle& signals,
                               const std::vector<size_t>& triple_subset,
                               std::vector<double> weights) const {
  JoclRuntime runtime(options_, RuntimeOptions{options_.runtime_threads,
                                                /*max_shards=*/0});
  return runtime.Infer(dataset, signals, triple_subset, std::move(weights));
}

Result<JoclResult> Jocl::Run(const Dataset& dataset,
                             const SignalBundle& signals,
                             const std::vector<size_t>& triple_subset) const {
  Result<std::vector<double>> weights = LearnWeights(dataset, signals);
  if (!weights.ok()) return weights.status();
  return Infer(dataset, signals, triple_subset, weights.MoveValueOrDie());
}

}  // namespace jocl

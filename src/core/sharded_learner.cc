#include "core/sharded_learner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "core/graph_builder.h"
#include "core/shard.h"
#include "core/signal_cache.h"
#include "graph/inference.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/worker_pool.h"

namespace jocl {
namespace {

// Finds the linking-variable state of a gold id in a candidate list:
// state 0 is NIL, state k is candidate k-1.
template <typename Candidate>
size_t GoldState(const std::vector<Candidate>& candidates, int64_t gold) {
  if (gold == kNilId) return 0;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (candidates[c].id == gold) return c + 1;
  }
  return 0;  // gold not reachable -> best achievable label is NIL
}

/// One connected component's learning state, alive for the whole run:
/// graph + engine are built once (the engine binds the graph it clamps),
/// the expectation vectors are refilled every iteration.
struct ComponentState {
  JoclProblem problem;
  JoclGraph jgraph;
  std::unique_ptr<InferenceEngine> engine;
  std::vector<std::pair<VariableId, size_t>> labels;
  std::vector<double> clamped_expect;
  std::vector<double> free_expect;
  /// logZ_clamped − logZ_free ≈ this component's log p(Y^L_c).
  double log_likelihood = 0.0;
};

/// Runs both expectation passes of one iteration for one component. The
/// graph ends unclamped; all outputs land in the component's own state,
/// so concurrent calls on different components never share writes.
void RunComponentPasses(ComponentState* state) {
  FactorGraph* graph = &state->jgraph.graph;
  double clamped_log_z = 0.0;
  {
    ScopedSpan span("clamped_pass");
    graph->UnclampAll();
    for (const auto& [variable, label_state] : state->labels) {
      Status st = graph->Clamp(variable, label_state);
      (void)st;  // labels are built from the graph's own variables
    }
    std::fill(state->clamped_expect.begin(), state->clamped_expect.end(),
              0.0);
    state->engine->Run();
    state->engine->AccumulateExpectedFeatures(&state->clamped_expect);
    clamped_log_z = state->engine->LogPartitionEstimate();
  }

  ScopedSpan span("free_pass");
  graph->UnclampAll();
  std::fill(state->free_expect.begin(), state->free_expect.end(), 0.0);
  state->engine->Run();
  state->engine->AccumulateExpectedFeatures(&state->free_expect);
  state->log_likelihood = clamped_log_z - state->engine->LogPartitionEstimate();
}

/// Mirrors a finished learning run's stats onto the process-wide
/// registry.
void MirrorLearnerStats(const LearnerRunStats& stats, size_t iterations) {
  MetricsRegistry& global = MetricsRegistry::Global();
  static Counter* runs = global.AddCounter("jocl_learn_runs_total", "",
                                           "Learning runs completed");
  static Counter* iters = global.AddCounter(
      "jocl_learn_iterations_total", "", "Gradient-ascent iterations");
  static Counter* labels = global.AddCounter(
      "jocl_learn_labels_total", "", "Gold labels clamped per run");
  runs->Add();
  iters->Add(iterations);
  labels->Add(stats.labels);
}

/// Groups component indices into scheduling bins via the partition
/// layer's deterministic packing (PackWeightedItems, core/shard.h).
/// Components inside a bin stay in ascending order — execution order is
/// result-irrelevant, this just keeps memory walks monotone.
std::vector<std::vector<size_t>> PackBins(
    const std::vector<size_t>& component_weight, size_t bins) {
  const std::vector<size_t> bin_of = PackWeightedItems(component_weight, bins);
  const size_t n_bins =
      (bins == 0 || bins >= component_weight.size()) ? component_weight.size()
                                                     : bins;
  std::vector<std::vector<size_t>> packed(n_bins);
  for (size_t c = 0; c < bin_of.size(); ++c) {
    packed[bin_of[c]].push_back(c);
  }
  return packed;
}

}  // namespace

std::vector<std::pair<VariableId, size_t>> BuildGoldLabels(
    const Dataset& dataset, const JoclProblem& problem,
    const JoclGraph& jgraph, const GraphBuilderOptions& builder) {
  std::vector<std::pair<VariableId, size_t>> labels;
  auto label_pairs = [&](const std::vector<SurfacePair>& pairs,
                         const std::vector<VariableId>& vars,
                         const std::vector<size_t>& representative,
                         auto gold_group_of) {
    for (size_t p = 0; p < pairs.size(); ++p) {
      int64_t group_a = gold_group_of(representative[pairs[p].a]);
      int64_t group_b = gold_group_of(representative[pairs[p].b]);
      labels.emplace_back(vars[p], group_a == group_b ? 1 : 0);
    }
  };
  if (builder.enable_canonicalization) {
    label_pairs(problem.subject_pairs, jgraph.x_vars, problem.subject_rep,
                [&](size_t local) {
                  return dataset.gold_np_group[problem.triples[local] * 2];
                });
    label_pairs(problem.predicate_pairs, jgraph.y_vars, problem.predicate_rep,
                [&](size_t local) {
                  return dataset.gold_rp_group[problem.triples[local]];
                });
    label_pairs(problem.object_pairs, jgraph.z_vars, problem.object_rep,
                [&](size_t local) {
                  return dataset.gold_np_group[problem.triples[local] * 2 + 1];
                });
  }
  if (builder.enable_linking) {
    for (size_t t = 0; t < problem.triples.size(); ++t) {
      size_t global = problem.triples[t];
      labels.emplace_back(
          jgraph.es_vars[t],
          GoldState(problem.subject_candidates[problem.subject_of[t]],
                    dataset.gold_subject_entity[global]));
      labels.emplace_back(
          jgraph.rp_vars[t],
          GoldState(problem.predicate_candidates[problem.predicate_of[t]],
                    dataset.gold_relation[global]));
      labels.emplace_back(
          jgraph.eo_vars[t],
          GoldState(problem.object_candidates[problem.object_of[t]],
                    dataset.gold_object_entity[global]));
    }
  }
  return labels;
}

ShardedLearner::ShardedLearner(JoclOptions options, RuntimeOptions runtime)
    : options_(std::move(options)), runtime_(runtime) {}

Result<LearnerResult> ShardedLearner::Learn(
    const Dataset& dataset, const SignalBundle& signals,
    const std::vector<size_t>& labeled_triples,
    std::vector<double> initial_weights, LearnerRunStats* stats) const {
  const size_t w = WeightLayout::kCount;
  if (initial_weights.empty()) initial_weights = Jocl::DefaultWeights();
  if (initial_weights.size() != w) {
    return Status::InvalidArgument(
        "initial weights must have WeightLayout::kCount entries");
  }
  for (size_t t : labeled_triples) {
    if (t >= dataset.okb.size()) {
      return Status::InvalidArgument("labeled triple index " +
                                     std::to_string(t) +
                                     " out of range for the dataset");
    }
  }
  if (options_.builder.enable_canonicalization &&
      (dataset.gold_np_group.size() < dataset.okb.size() * 2 ||
       dataset.gold_rp_group.size() < dataset.okb.size())) {
    return Status::InvalidArgument(
        "dataset lacks gold canonicalization groups for learning");
  }
  if (options_.builder.enable_linking &&
      (dataset.gold_subject_entity.size() < dataset.okb.size() ||
       dataset.gold_relation.size() < dataset.okb.size() ||
       dataset.gold_object_entity.size() < dataset.okb.size())) {
    return Status::InvalidArgument(
        "dataset lacks gold links for learning");
  }

  LearnerRunStats local_stats;
  ScopedSpan learn_span("learn");
  std::optional<ScopedSpan> span;

  // ---- global stages: problem, signal cache, partition --------------------
  span.emplace("build_problem", &local_stats.problem_seconds);
  JoclProblem problem =
      BuildProblem(dataset, signals, labeled_triples, options_.problem);
  span.emplace("signal_cache", &local_stats.cache_seconds);
  SignalCache cache = SignalCache::ForProblem(problem, signals, dataset.ckb);

  // One shard per connected component, always: the component is the
  // reduction unit (see the class comment), so graph granularity must not
  // depend on the max_shards knob — that knob only packs components into
  // scheduling bins below.
  span.emplace("partition", &local_stats.partition_seconds);
  ShardPlan plan = PartitionProblem(problem, /*max_shards=*/0);
  const size_t n_components = plan.shards.size();
  std::vector<size_t> component_weight(n_components);
  for (size_t c = 0; c < n_components; ++c) {
    component_weight[c] = plan.shards[c].triple_map.size();
  }
  std::vector<std::vector<size_t>> bins =
      PackBins(component_weight, runtime_.max_shards);
  span.reset();
  local_stats.components = n_components;
  local_stats.bins = bins.size();

  LearnerResult result;
  result.weights = std::move(initial_weights);
  const std::vector<double> anchor = result.weights;  // regularization center
  if (n_components == 0) {
    result.converged = true;  // an empty gradient is below any tolerance
    if (stats != nullptr) *stats = local_stats;
    return result;
  }

  const size_t requested_threads = ResolveThreadCount(runtime_.num_threads);

  // ---- per-component setup: build + bind an engine once, label -----------
  // `result.weights` is the one weight vector every engine binds; it is
  // only written between iterations, after all workers joined.
  span.emplace("setup", &local_stats.setup_seconds);
  std::vector<std::unique_ptr<ComponentState>> components(n_components);
  RunOnPool(
      n_components, requested_threads,
      [&](size_t c) { return component_weight[c]; },
      [&](size_t c) {
        auto state = std::make_unique<ComponentState>();
        state->problem = std::move(plan.shards[c].problem);
        state->jgraph = BuildJoclGraph(state->problem, cache, dataset.ckb,
                                       options_.builder);
        LbpOptions lbp_options = options_.learner.lbp;
        lbp_options.factor_schedule = state->jgraph.schedule;
        lbp_options.num_threads = 1;  // parallelism lives across components
        state->engine = CreateInferenceEngine(InferenceBackend::kLbp,
                                              &state->jgraph.graph,
                                              &result.weights, lbp_options);
        state->labels = BuildGoldLabels(dataset, state->problem,
                                        state->jgraph, options_.builder);
        state->clamped_expect.resize(w, 0.0);
        state->free_expect.resize(w, 0.0);
        components[c] = std::move(state);
      });
  for (const auto& state : components) {
    local_stats.labels += state->labels.size();
    local_stats.variables += state->jgraph.graph.variable_count();
    local_stats.factors += state->jgraph.graph.factor_count();
  }

  // ---- gradient ascent ----------------------------------------------------
  span.emplace("ascent", &local_stats.learn_seconds);
  std::vector<double> gradient(w);
  for (size_t iter = 0; iter < options_.learner.iterations; ++iter) {
    double iteration_seconds = 0.0;
    std::optional<ScopedSpan> iteration_span(std::in_place, "iteration",
                                             &iteration_seconds);
    // Expectation passes, bin-parallel. Every write is component-local.
    RunOnPool(
        bins.size(), requested_threads,
        [&](size_t b) {
          size_t total = 0;
          for (size_t c : bins[b]) {
            total += component_weight[c];
          }
          return total;
        },
        [&](size_t b) {
          for (size_t c : bins[b]) {
            // Track by component index — deterministic across thread
            // counts and bin packings (the clamped/free spans inside
            // nest under this one).
            TraceTrackScope track("learner/", c);
            ScopedSpan span("component_passes");
            RunComponentPasses(components[c].get());
          }
        });

    // Deterministic reduction: ascending component order per weight, on
    // this thread — execution order above cannot leak into the result.
    double log_likelihood = 0.0;
    for (size_t c = 0; c < n_components; ++c) {
      log_likelihood += components[c]->log_likelihood;
    }
    for (size_t k = 0; k < w; ++k) {
      double sum = 0.0;
      for (size_t c = 0; c < n_components; ++c) {
        sum += components[c]->clamped_expect[k] -
               components[c]->free_expect[k];
      }
      gradient[k] = sum;
    }

    LearnerTrace trace =
        ApplyAscentStep(options_.learner, iter, gradient, log_likelihood,
                        anchor, &result.weights);
    iteration_span.reset();
    trace.seconds = iteration_seconds;
    result.trace.push_back(trace);
    JOCL_LOG(kDebug) << "sharded learner iter " << iter << " objective "
                     << trace.objective << " grad max-norm "
                     << trace.gradient_max_norm;
    if (trace.gradient_max_norm < kGradientTolerance) {
      result.converged = true;
      break;
    }
  }
  span.reset();

  JOCL_LOG(kDebug) << "sharded learner: " << n_components << " components in "
                   << bins.size() << " bins over " << requested_threads
                   << " threads, " << local_stats.labels << " labels";
  MirrorLearnerStats(local_stats, result.trace.size());
  if (stats != nullptr) *stats = local_stats;
  return result;
}

}  // namespace jocl

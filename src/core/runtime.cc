#include "core/runtime.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "core/decode.h"
#include "core/graph_builder.h"
#include "graph/inference.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/worker_pool.h"

namespace jocl {
namespace {

/// Mirrors a finished run's runtime-only families onto the process-wide
/// registry; the shared LBP families go through MirrorLbpStats. The
/// handles are function-local statics: first call registers, later calls
/// re-use.
void MirrorRuntimeStats(const RuntimeStats& stats) {
  MetricsRegistry& global = MetricsRegistry::Global();
  static Counter* runs =
      global.AddCounter("jocl_infer_runs_total", "", "Full inference runs");
  static Counter* variables = global.AddCounter(
      "jocl_graph_variables_total", "", "Variables across built graphs");
  static Counter* factors = global.AddCounter(
      "jocl_graph_factors_total", "", "Factors across built graphs");
  runs->Add();
  variables->Add(stats.variables);
  factors->Add(stats.factors);
}

}  // namespace

void MergeShardDiagnostics(const LbpResult& shard, LbpResult* merged) {
  merged->iterations = std::max(merged->iterations, shard.iterations);
  merged->converged = merged->converged && shard.converged;
  merged->unconverged_components += shard.unconverged_components;
  merged->final_residual =
      std::max(merged->final_residual, shard.final_residual);
  // Kernel counters are totals, not maxima: shards partition the factor
  // set, so the merged run's work is the sum of the shard runs' work.
  merged->message_updates += shard.message_updates;
  merged->residual_pops += shard.residual_pops;
  merged->sweeps_skipped += shard.sweeps_skipped;
  merged->log_space_updates += shard.log_space_updates;
}

void FoldShardRun(const ShardBeliefs& shard, LbpResult* merged,
                  PipelineStats* stats) {
  MergeShardDiagnostics(shard.diagnostics, merged);
  stats->variables += shard.variables;
  stats->factors += shard.factors;
  stats->graph_seconds += shard.graph_seconds;
  stats->infer_seconds += shard.infer_seconds;
  stats->message_updates += shard.diagnostics.message_updates;
  stats->residual_pops += shard.diagnostics.residual_pops;
  stats->sweeps_skipped += shard.diagnostics.sweeps_skipped;
  stats->log_space_updates += shard.diagnostics.log_space_updates;
  stats->unconverged_components += shard.diagnostics.unconverged_components;
}

size_t EngineThreadsPerShard(size_t threads, size_t shards) {
  if (shards == 0 || shards >= threads) return 1;
  return (threads + shards - 1) / shards;
}

void MirrorLbpStats(const PipelineStats& stats, double certificate) {
  MetricsRegistry& global = MetricsRegistry::Global();
  static Counter* updates =
      global.AddCounter("jocl_lbp_message_updates_total", "",
                        "LBP message updates across all engines");
  static Counter* pops =
      global.AddCounter("jocl_lbp_residual_pops_total", "",
                        "Residual-schedule priority pops");
  static Counter* skipped =
      global.AddCounter("jocl_lbp_sweeps_skipped_total", "",
                        "Sweeps' worth of LBP update budget left unspent");
  static Counter* log_space =
      global.AddCounter("jocl_lbp_log_space_updates_total", "",
                        "Sum-product updates the range guard ran in log space");
  static Counter* unconverged = global.AddCounter(
      "jocl_lbp_unconverged_components_total", "",
      "LBP components that spent their budget above the tolerance");
  static Gauge* certificate_gauge =
      global.AddGauge("jocl_lbp_certificate", "",
                      "Max pending LBP residual of the latest result");
  updates->Add(stats.message_updates);
  pops->Add(stats.residual_pops);
  skipped->Add(stats.sweeps_skipped);
  log_space->Add(stats.log_space_updates);
  unconverged->Add(stats.unconverged_components);
  certificate_gauge->SetDouble(certificate);
}

void MirrorDecodeStats(const JoclResult& result) {
  MetricsRegistry& global = MetricsRegistry::Global();
  static Gauge* np_largest = global.AddGauge(
      "jocl_decode_largest_cluster", "kind=\"np\"",
      "Mentions in the largest cluster of the latest decode");
  static Gauge* rp_largest = global.AddGauge(
      "jocl_decode_largest_cluster", "kind=\"rp\"",
      "Mentions in the largest cluster of the latest decode");
  static Gauge* np_nil = global.AddGauge(
      "jocl_decode_nil_link_ratio", "kind=\"np\"",
      "Share of mentions the latest decode linked to NIL");
  static Gauge* rp_nil = global.AddGauge(
      "jocl_decode_nil_link_ratio", "kind=\"rp\"",
      "Share of mentions the latest decode linked to NIL");
  auto largest = [](const std::vector<size_t>& labels) {
    std::vector<size_t> size;
    for (size_t label : labels) {
      if (label >= size.size()) size.resize(label + 1, 0);
      ++size[label];
    }
    return size.empty() ? size_t{0} : *std::max_element(size.begin(),
                                                        size.end());
  };
  auto nil_ratio = [](const std::vector<int64_t>& links) {
    if (links.empty()) return 0.0;
    const auto nil = std::count(links.begin(), links.end(), kNilId);
    return static_cast<double>(nil) / static_cast<double>(links.size());
  };
  np_largest->Set(static_cast<int64_t>(largest(result.np_cluster)));
  rp_largest->Set(static_cast<int64_t>(largest(result.rp_cluster)));
  np_nil->SetDouble(nil_ratio(result.np_link));
  rp_nil->SetDouble(nil_ratio(result.rp_link));
}

ShardBeliefs RunShardInference(const JoclProblem& local,
                               const SignalCache& cache, const CuratedKb& ckb,
                               const JoclOptions& options,
                               const std::vector<double>& weights,
                               size_t engine_threads) {
  ShardBeliefs out;
  // Stage spans land on the caller's current track (the pool worker's
  // "shard/<s>" scope) and are the shard's only stage clock.
  std::optional<ScopedSpan> span;
  span.emplace("build_graph", &out.graph_seconds);
  JoclGraph jgraph = BuildJoclGraph(local, cache, ckb, options.builder);
  LbpOptions lbp_options = options.inference;
  lbp_options.factor_schedule = jgraph.schedule;
  lbp_options.num_threads = engine_threads;
  // The "compile" span times engine construction: attachment lists,
  // components, schedule and arenas over the flat graph.
  span.emplace("compile", &out.graph_seconds);
  std::unique_ptr<InferenceEngine> engine = CreateInferenceEngine(
      InferenceBackend::kLbp, &jgraph.graph, &weights, lbp_options);

  span.emplace("infer", &out.infer_seconds);
  out.diagnostics = engine->Run();
  out.diagnostics.marginals.clear();
  out.variables = jgraph.graph.variable_count();
  out.factors = jgraph.graph.factor_count();
  std::vector<size_t> decoded = engine->Decode();

  if (options.builder.enable_canonicalization) {
    auto extract_pairs = [&](const std::vector<VariableId>& vars,
                             std::vector<std::vector<double>>* marg,
                             std::vector<size_t>* state) {
      marg->resize(vars.size());
      state->resize(vars.size());
      for (size_t p = 0; p < vars.size(); ++p) {
        (*marg)[p] = engine->Marginal(vars[p]);
        (*state)[p] = decoded[vars[p]];
      }
    };
    extract_pairs(jgraph.x_vars, &out.x_marg, &out.x_state);
    extract_pairs(jgraph.y_vars, &out.y_marg, &out.y_state);
    extract_pairs(jgraph.z_vars, &out.z_marg, &out.z_state);
  }
  if (options.builder.enable_linking) {
    const size_t n = local.triples.size();
    auto extract_links = [&](const std::vector<VariableId>& vars,
                             std::vector<std::vector<double>>* marg,
                             std::vector<size_t>* state) {
      marg->resize(n);
      state->resize(n);
      for (size_t t = 0; t < n; ++t) {
        (*marg)[t] = engine->Marginal(vars[t]);
        (*state)[t] = decoded[vars[t]];
      }
    };
    extract_links(jgraph.es_vars, &out.es_marg, &out.es_state);
    extract_links(jgraph.rp_vars, &out.rp_marg, &out.rp_state);
    extract_links(jgraph.eo_vars, &out.eo_marg, &out.eo_state);
  }
  span.reset();
  return out;
}

void SizeJoclBeliefs(const JoclProblem& problem,
                     const GraphBuilderOptions& builder,
                     JoclBeliefs* beliefs) {
  // Sizes in place rather than resetting: a session passes the previous
  // batch's arrays back in, and reusing the inner marginal vectors'
  // capacity turns the per-slot scatter into assignment instead of tens
  // of thousands of fresh allocations. Every slot inside the new sizes is
  // overwritten by the scatters (shards partition the pair and triple
  // spaces), so stale contents never leak into a result.
  if (builder.enable_canonicalization) {
    beliefs->x_marg.resize(problem.subject_pairs.size());
    beliefs->x_state.resize(problem.subject_pairs.size());
    beliefs->y_marg.resize(problem.predicate_pairs.size());
    beliefs->y_state.resize(problem.predicate_pairs.size());
    beliefs->z_marg.resize(problem.object_pairs.size());
    beliefs->z_state.resize(problem.object_pairs.size());
  } else {
    beliefs->x_marg.clear();
    beliefs->x_state.clear();
    beliefs->y_marg.clear();
    beliefs->y_state.clear();
    beliefs->z_marg.clear();
    beliefs->z_state.clear();
  }
  if (builder.enable_linking) {
    beliefs->es_marg.resize(problem.triples.size());
    beliefs->es_state.resize(problem.triples.size());
    beliefs->rp_marg.resize(problem.triples.size());
    beliefs->rp_state.resize(problem.triples.size());
    beliefs->eo_marg.resize(problem.triples.size());
    beliefs->eo_state.resize(problem.triples.size());
  } else {
    beliefs->es_marg.clear();
    beliefs->es_state.clear();
    beliefs->rp_marg.clear();
    beliefs->rp_state.clear();
    beliefs->eo_marg.clear();
    beliefs->eo_state.clear();
  }
}

void ScatterShardBeliefs(const ProblemShard& shard, const ShardBeliefs& local,
                         const GraphBuilderOptions& builder,
                         JoclBeliefs* beliefs) {
  if (builder.enable_canonicalization) {
    auto scatter_pairs = [&](const std::vector<std::vector<double>>& marg,
                             const std::vector<size_t>& state,
                             const std::vector<size_t>& pair_map,
                             std::vector<std::vector<double>>* global_marg,
                             std::vector<size_t>* global_state) {
      for (size_t p = 0; p < pair_map.size(); ++p) {
        (*global_marg)[pair_map[p]] = marg[p];
        (*global_state)[pair_map[p]] = state[p];
      }
    };
    scatter_pairs(local.x_marg, local.x_state, shard.subject_pair_map,
                  &beliefs->x_marg, &beliefs->x_state);
    scatter_pairs(local.y_marg, local.y_state, shard.predicate_pair_map,
                  &beliefs->y_marg, &beliefs->y_state);
    scatter_pairs(local.z_marg, local.z_state, shard.object_pair_map,
                  &beliefs->z_marg, &beliefs->z_state);
  }
  if (builder.enable_linking) {
    for (size_t t = 0; t < shard.triple_map.size(); ++t) {
      size_t global = shard.triple_map[t];
      beliefs->es_marg[global] = local.es_marg[t];
      beliefs->es_state[global] = local.es_state[t];
      beliefs->rp_marg[global] = local.rp_marg[t];
      beliefs->rp_state[global] = local.rp_state[t];
      beliefs->eo_marg[global] = local.eo_marg[t];
      beliefs->eo_state[global] = local.eo_state[t];
    }
  }
}

JoclResult AssembleJoclResult(const JoclProblem& problem,
                              const JoclBeliefs& beliefs,
                              const JoclOptions& options,
                              std::vector<double> weights,
                              LbpResult diagnostics,
                              size_t /*decode_threads*/) {
  JoclResult result;
  result.weights = std::move(weights);
  result.triples = problem.triples;
  result.diagnostics = std::move(diagnostics);
  // Canonical marginal order, independent of sharding: subject pairs,
  // predicate pairs, object pairs, then es/rp/eo per triple. Filled by
  // element assignment into whatever storage \p diagnostics arrived with:
  // a session passes its previous result's marginal list back in, so the
  // steady-state rebuild reuses those inner vectors instead of
  // reallocating every marginal.
  auto& marginals = result.diagnostics.marginals;
  const auto groups = {&beliefs.x_marg,  &beliefs.y_marg, &beliefs.z_marg,
                       &beliefs.es_marg, &beliefs.rp_marg, &beliefs.eo_marg};
  size_t total = 0;
  for (const auto* group : groups) total += group->size();
  marginals.resize(total);
  size_t slot = 0;
  for (const auto* group : groups) {
    for (const std::vector<double>& marginal : *group) {
      marginals[slot++] = marginal;
    }
  }

  DecodeJointResult(problem, beliefs, options.builder, &result);
  return result;
}

JoclRuntime::JoclRuntime(JoclOptions options, RuntimeOptions runtime)
    : options_(std::move(options)), runtime_(runtime) {}

Result<JoclResult> JoclRuntime::Infer(const Dataset& dataset,
                                      const SignalBundle& signals,
                                      const std::vector<size_t>& triple_subset,
                                      std::vector<double> weights,
                                      RuntimeStats* stats) const {
  if (weights.empty()) weights = Jocl::DefaultWeights();
  if (weights.size() != WeightLayout::kCount) {
    return Status::InvalidArgument("weights must have WeightLayout::kCount "
                                   "entries");
  }
  for (size_t t : triple_subset) {
    if (t >= dataset.okb.size()) {
      return Status::InvalidArgument("triple index " + std::to_string(t) +
                                     " out of range for the dataset");
    }
  }
  RuntimeStats local_stats;
  ScopedSpan infer_span("runtime_infer");
  std::optional<ScopedSpan> span;

  // ---- global stages: problem, signal cache, partition --------------------
  span.emplace("build_problem", &local_stats.problem_seconds);
  JoclProblem problem =
      BuildProblem(dataset, signals, triple_subset, options_.problem);
  span.emplace("signal_cache", &local_stats.cache_seconds);
  SignalCache cache = SignalCache::ForProblem(problem, signals, dataset.ckb);
  span.emplace("partition", &local_stats.partition_seconds);
  ShardPlan plan = PartitionProblem(problem, runtime_.max_shards);
  span.reset();
  local_stats.shards = plan.shards.size();
  local_stats.components = plan.component_count;

  // ---- per-shard build→infer→extract on a worker pool ---------------------
  span.emplace("run_shards", &local_stats.shard_seconds);
  JoclBeliefs beliefs;
  SizeJoclBeliefs(problem, options_.builder, &beliefs);
  std::vector<ShardBeliefs> outcomes(plan.shards.size());
  const size_t threads = ResolveThreadCount(runtime_.num_threads);
  const size_t engine_threads =
      EngineThreadsPerShard(threads, plan.shards.size());

  auto run_shard = [&](size_t s) {
    // Logical track "shard/<s>": the plan index, not the worker thread,
    // keys the trace — so dumps are identical across thread counts.
    TraceTrackScope track("shard/", s);
    ScopedSpan span("shard_run");
    const ProblemShard& shard = plan.shards[s];
    ShardBeliefs local =
        RunShardInference(shard.problem, cache, dataset.ckb, options_,
                          weights, engine_threads);
    // Shards partition the pair and triple spaces, so every scatter write
    // hits a slot no other shard touches.
    ScatterShardBeliefs(shard, local, options_.builder, &beliefs);
    // Only the fold's inputs are read after the scatter; dropping the
    // local belief copies keeps peak marginal memory at one global set
    // (the session, which does need them, keeps its own).
    ShardBeliefs& folded = outcomes[s];
    folded.diagnostics = std::move(local.diagnostics);
    folded.variables = local.variables;
    folded.factors = local.factors;
    folded.graph_seconds = local.graph_seconds;
    folded.infer_seconds = local.infer_seconds;
  };

  // Heaviest shards first so stragglers start early; execution order does
  // not affect the output (disjoint writes, order-independent merge).
  RunOnPool(
      plan.shards.size(), threads,
      [&](size_t s) { return plan.shards[s].triple_map.size(); }, run_shard);

  // ---- merge + global decode ----------------------------------------------
  span.emplace("decode", &local_stats.decode_seconds);
  LbpResult diagnostics;
  diagnostics.converged = true;
  for (const ShardBeliefs& outcome : outcomes) {
    FoldShardRun(outcome, &diagnostics, &local_stats);
  }
  JoclResult result = AssembleJoclResult(problem, beliefs, options_,
                                         std::move(weights),
                                         std::move(diagnostics));
  span.reset();

  JOCL_LOG(kDebug) << "runtime: " << plan.shards.size() << " shards over "
                   << threads << " threads, " << local_stats.variables
                   << " variables, " << local_stats.factors << " factors";
  MirrorRuntimeStats(local_stats);
  MirrorLbpStats(local_stats, result.diagnostics.final_residual);
  MirrorDecodeStats(result);
  if (stats != nullptr) *stats = local_stats;
  return result;
}

}  // namespace jocl

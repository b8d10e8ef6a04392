// Learning-runtime bench: the sequential monolithic learner (one global
// graph, sequential LBP passes) versus the sharded learner
// (core/sharded_learner.h) across threads/shards settings, plus the
// byte-identity check between every configuration, the per-iteration
// objective/gradient trace, and a learned-vs-uniform quality readout.
// Emits BENCH_learning.json (path: JOCL_BENCH_OUT, default
// ./BENCH_learning.json) for CI tracking.
//
// Acceptance bar (ISSUE 5): byte-identical weights for every
// threads/shards setting, and >= 2x end-to-end learning speedup at 4
// threads over the sequential learner (enforced when the host has >= 4
// hardware threads; reported otherwise).
#include <cmath>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/graph_builder.h"
#include "core/problem.h"
#include "core/sharded_learner.h"
#include "core/signal_cache.h"
#include "support/factor_graph_learner.h"
#include "util/rng.h"

namespace jocl {
namespace bench {
namespace {

struct ShardedRun {
  size_t threads = 0;
  size_t shards = 0;
  double seconds = 0.0;
  double speedup = 0.0;
  bool identical = false;  // weights byte-identical to the reference run
};

int Run() {
  int failures = 0;
  BenchEnv env = BenchEnv::FromEnv();
  Banner("Sharded learning runtime (ReVerb45K-like)", env);
  std::unique_ptr<DataPack> pack = DataPack::ReVerb(env);
  const Dataset& ds = pack->dataset();
  const SignalBundle& sig = pack->signals();

  // The labeled subset, subsampled exactly like Jocl::LearnWeights.
  JoclOptions options;
  std::vector<size_t> labeled = ds.validation_triples;
  if (labeled.size() > options.max_learning_triples) {
    Rng rng(options.seed);
    rng.Shuffle(&labeled);
    labeled.resize(options.max_learning_triples);
  }
  std::printf("%zu labeled triples, %zu gradient iterations\n\n",
              labeled.size(), options.learner.iterations);

  // ---- sequential baseline: monolithic graph, sequential LBP --------------
  // This is the pre-refactor learning path: one global graph, one engine,
  // and every expectation pass on a single thread.
  double sequential_seconds = 0.0;
  std::vector<double> sequential_weights;
  {
    Stopwatch watch;
    JoclProblem problem = BuildProblem(ds, sig, labeled, options.problem);
    SignalCache cache = SignalCache::ForProblem(problem, sig, ds.ckb);
    JoclGraph jgraph = BuildJoclGraph(problem, cache, ds.ckb,
                                      options.builder);
    std::vector<std::pair<VariableId, size_t>> labels =
        BuildGoldLabels(ds, problem, jgraph, options.builder);
    LearnerOptions learner_options = options.learner;
    learner_options.lbp.num_threads = 1;
    learner_options.lbp.factor_schedule = jgraph.schedule;
    FactorGraphLearner learner(learner_options);
    LearnerResult result =
        learner.Learn(&jgraph.graph, labels, Jocl::DefaultWeights());
    sequential_seconds = watch.ElapsedSeconds();
    sequential_weights = std::move(result.weights);
  }
  std::printf("sequential learner (monolithic graph, 1 thread): %.3fs\n\n",
              sequential_seconds);

  // ---- sharded learner sweep ----------------------------------------------
  const std::vector<std::pair<size_t, size_t>> configs = {
      {1, 0}, {2, 0}, {4, 0}, {8, 0}, {4, 1}, {4, 8}};
  std::vector<ShardedRun> runs;
  std::vector<double> reference_weights;
  LearnerResult reference_result;
  LearnerRunStats reference_stats;
  TablePrinter table({"Threads", "Bins", "Seconds", "Speedup", "Identical"});
  for (const auto& [threads, shards] : configs) {
    RuntimeOptions runtime;
    runtime.num_threads = threads;
    runtime.max_shards = shards;
    ShardedLearner learner(options, runtime);
    LearnerRunStats stats;
    Stopwatch watch;
    Result<LearnerResult> learned =
        learner.Learn(ds, sig, labeled, Jocl::DefaultWeights(), &stats);
    double seconds = watch.ElapsedSeconds();
    if (!learned.ok()) {
      std::printf("ERROR: %s\n", learned.status().ToString().c_str());
      return 1;
    }
    ShardedRun run;
    run.threads = threads;
    run.shards = shards;
    run.seconds = seconds;
    run.speedup = seconds > 0.0 ? sequential_seconds / seconds : 0.0;
    if (reference_weights.empty()) {
      reference_weights = learned.ValueOrDie().weights;
      reference_result = learned.MoveValueOrDie();
      reference_stats = stats;
      run.identical = true;
    } else {
      run.identical = learned.ValueOrDie().weights == reference_weights;
    }
    if (!run.identical) ++failures;
    table.AddRow({std::to_string(threads),
                  shards == 0 ? "per-comp" : std::to_string(shards),
                  TablePrinter::Num(run.seconds),
                  TablePrinter::Num(run.speedup),
                  run.identical ? "yes" : "NO (bug!)"});
    runs.push_back(run);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("partition: %zu components, %zu labels, %zu variables, "
              "%zu factors\n",
              reference_stats.components, reference_stats.labels,
              reference_stats.variables, reference_stats.factors);

  // Cross-check against the monolithic learner: identical math, so the
  // two may differ only by float summation order compounded through the
  // LBP passes — a real divergence (wrong labels, dropped component)
  // shows up orders of magnitude above this bar.
  double monolithic_divergence = 0.0;
  for (size_t k = 0; k < reference_weights.size(); ++k) {
    monolithic_divergence =
        std::max(monolithic_divergence,
                 std::abs(reference_weights[k] - sequential_weights[k]));
  }
  std::printf("max |sharded - monolithic| weight divergence: %.2e%s\n\n",
              monolithic_divergence,
              monolithic_divergence <= 1e-3 ? "" : "  (FAIL: > 1e-3)");
  if (monolithic_divergence > 1e-3) ++failures;

  // ---- trace (reference run) ----------------------------------------------
  std::printf("gradient-ascent trajectory (threads=1, per-component "
              "bins):\n");
  for (const LearnerTrace& trace : reference_result.trace) {
    std::printf("  iter %2zu  objective %+10.4f  grad max-norm %8.5f  "
                "%.3fs\n",
                trace.iteration, trace.objective, trace.gradient_max_norm,
                trace.seconds);
  }
  std::printf("\n");

  // ---- learned vs uniform quality -----------------------------------------
  const std::vector<size_t>& eval = pack->eval_triples();
  Jocl jocl(options);
  JoclResult uniform_result =
      jocl.Infer(ds, sig, eval, Jocl::DefaultWeights()).MoveValueOrDie();
  JoclResult learned_result =
      jocl.Infer(ds, sig, eval, reference_weights).MoveValueOrDie();
  std::vector<size_t> gold_np = pack->GoldNp();
  std::vector<int64_t> gold_entities = pack->GoldEntities();
  double uniform_f1 =
      EvaluateClustering(uniform_result.np_cluster, gold_np).average_f1;
  double learned_f1 =
      EvaluateClustering(learned_result.np_cluster, gold_np).average_f1;
  double uniform_acc = LinkingAccuracy(uniform_result.np_link, gold_entities);
  double learned_acc = LinkingAccuracy(learned_result.np_link, gold_entities);
  std::printf("test quality: uniform NP F1 %.3f / link %.3f -> "
              "learned NP F1 %.3f / link %.3f\n\n",
              uniform_f1, uniform_acc, learned_f1, learned_acc);

  // ---- acceptance ---------------------------------------------------------
  double speedup_at_4 = 0.0;
  for (const ShardedRun& run : runs) {
    if (run.threads == 4 && run.shards == 0) speedup_at_4 = run.speedup;
  }
  const size_t hardware = std::thread::hardware_concurrency();
  const bool enforce = hardware >= 4;
  const bool pass = speedup_at_4 >= 2.0;
  if (enforce) {
    std::printf("acceptance (>= 2x at 4 threads): %s (%.2fx)\n",
                pass ? "PASS" : "FAIL", speedup_at_4);
    if (!pass) ++failures;
  } else {
    std::printf("acceptance (>= 2x at 4 threads): SKIP — host has %zu "
                "hardware threads (measured %.2fx)\n",
                hardware, speedup_at_4);
  }

  // ---- JSON artifact ------------------------------------------------------
  const char* out_path = std::getenv("JOCL_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_learning.json";
  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scale\": %.3f,\n  \"seed\": %llu,\n", env.scale,
               static_cast<unsigned long long>(env.seed));
  std::fprintf(out,
               "  \"labeled_triples\": %zu,\n  \"iterations\": %zu,\n"
               "  \"components\": %zu,\n  \"labels\": %zu,\n"
               "  \"hardware_threads\": %zu,\n",
               labeled.size(), reference_result.trace.size(),
               reference_stats.components, reference_stats.labels, hardware);
  std::fprintf(out, "  \"sequential_seconds\": %.4f,\n", sequential_seconds);
  std::fprintf(out, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const ShardedRun& run = runs[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"shards\": %zu, "
                 "\"seconds\": %.4f, \"speedup_vs_sequential\": %.2f, "
                 "\"identical\": %s}%s\n",
                 run.threads, run.shards, run.seconds, run.speedup,
                 run.identical ? "true" : "false",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"trace\": [\n");
  for (size_t i = 0; i < reference_result.trace.size(); ++i) {
    const LearnerTrace& trace = reference_result.trace[i];
    std::fprintf(out,
                 "    {\"iteration\": %zu, \"objective\": %.6f, "
                 "\"gradient_max_norm\": %.6f, \"seconds\": %.4f}%s\n",
                 trace.iteration, trace.objective, trace.gradient_max_norm,
                 trace.seconds,
                 i + 1 < reference_result.trace.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"quality\": {\"uniform_np_f1\": %.4f, "
               "\"learned_np_f1\": %.4f, \"uniform_link_acc\": %.4f, "
               "\"learned_link_acc\": %.4f},\n",
               uniform_f1, learned_f1, uniform_acc, learned_acc);
  std::fprintf(out, "  \"monolithic_divergence\": %.3e,\n",
               monolithic_divergence);
  std::fprintf(out, "  \"speedup_at_4_threads\": %.2f,\n", speedup_at_4);
  // null = not enforced on this host (< 4 hardware threads), never a
  // measured-but-skipped "true".
  std::fprintf(out, "  \"acceptance_4thread_speedup_ge_2x\": %s\n",
               !enforce ? "null" : (pass ? "true" : "false"));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  if (failures > 0) {
    std::printf("%d correctness/acceptance check(s) FAILED\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace jocl

int main() { return jocl::bench::Run(); }

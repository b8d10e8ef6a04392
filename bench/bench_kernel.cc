// LBP kernel bench: the vectorized message kernel vs the scalar
// reference, and the residual schedule's convergence certificate, on the
// head-component worst case — one giant loopy component with skewed hub
// degrees, the shape that dominates end-to-end inference time.
// Emits BENCH_kernel.json (path: JOCL_BENCH_OUT, default
// ./BENCH_kernel.json) for CI tracking.
//
// Hard-fail guards (exit nonzero):
//   * the vectorized kernel's marginals must be byte-identical to the
//     scalar reference's (on both the synthetic head world and the real
//     generated joint graph);
//   * vectorized must never regress below 0.9x scalar on the head
//     worlds (CI smoke floor, any scale);
//   * the residual run at the default tolerance must certify convergence
//     (max pending residual below tolerance at stop) and match the decode
//     of a reference run at a far tighter tolerance and a large budget
//     (any scale);
//   * at full scale (JOCL_BENCH_SCALE >= 1): vectorized >= 1.5x scalar
//     on the head world under sum-product — the kernel production runs.
//     Both kernels run in probability space (one exp per input state,
//     one log per output state), so the ratio is the reference's
//     mixed-radix bookkeeping the specialized loops drop.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/graph_builder.h"
#include "core/problem.h"
#include "core/signal_cache.h"
#include "graph/factor_graph.h"
#include "graph/flat_lbp.h"
#include "util/rng.h"

namespace jocl {
namespace bench {
namespace {

// The head-component worst case: a backbone chain with skewed cross
// links (low-index hubs collect most of the degree, like the giant
// canonicalization component does), unary evidence on every third
// variable and ternary ties on every fifth. Cardinalities 2..8.
FactorGraph MakeHeadHeavyGraph(Rng* rng, size_t head_vars) {
  FactorGraph g;
  g.set_weight_count(1);
  // Coupling strength decays away from the hubs: the hub region is
  // strongly coupled (slow mixing, many sweeps), the tail is weak
  // evidence that settles immediately — the profile a residual schedule
  // exploits and a full sweep would pay full price for.
  auto random_table = [&](size_t states, double amplitude) {
    std::vector<double> table(states);
    for (double& v : table) v = rng->UniformDouble(-amplitude, amplitude);
    return FeatureTable::Uniform(0, std::move(table));
  };
  auto coupling = [](size_t i) { return 1.5 * 32.0 / (32.0 + i); };
  std::vector<VariableId> head;
  for (size_t i = 0; i < head_vars; ++i) {
    head.push_back(g.AddVariable(2 + i % 7));
  }
  auto card = [&](VariableId v) { return g.cardinality(v); };
  for (size_t i = 1; i < head.size(); ++i) {
    g.AddFactor({head[i - 1], head[i]},
                random_table(card(head[i - 1]) * card(head[i]),
                             coupling(i)))
        .ValueOrDie();
  }
  for (size_t i = 1; i < head.size(); ++i) {
    const size_t hub = static_cast<size_t>(
        rng->UniformUint64(std::max<size_t>(1, i / 4)));
    const VariableId other = head[hub == i ? i - 1 : i];
    g.AddFactor({head[hub], other},
                random_table(card(head[hub]) * card(other), coupling(i)))
        .ValueOrDie();
  }
  for (size_t i = 0; i < head.size(); i += 3) {
    g.AddFactor({head[i]}, random_table(card(head[i]), 1.5)).ValueOrDie();
  }
  for (size_t i = 5; i + 2 < head.size(); i += 5) {
    g.AddFactor({head[i], head[i + 1], head[i + 2]},
                random_table(card(head[i]) * card(head[i + 1]) *
                                 card(head[i + 2]),
                             coupling(i)))
        .ValueOrDie();
  }
  return g;
}

struct KernelRun {
  const char* world = "";
  size_t variables = 0;
  size_t factors = 0;
  double scalar_seconds = 0.0;
  double vectorized_seconds = 0.0;
  double speedup = 0.0;
  size_t message_updates = 0;
  size_t sweeps = 0;
  bool byte_identical = false;
};

// Times one (kernel) configuration over a built graph: best of \p reps
// full Run() calls (engine setup untimed), result of the last.
double TimeKernel(const FactorGraph& graph,
                  const std::vector<double>& weights, LbpOptions options,
                  int reps, LbpResult* result) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    FlatLbpEngine engine(&graph, &weights, options);
    Stopwatch watch;
    *result = engine.Run();
    double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

KernelRun CompareKernels(const char* world, const FactorGraph& graph,
                         const std::vector<double>& weights,
                         LbpOptions options, int reps) {
  KernelRun run;
  run.world = world;
  run.variables = graph.variable_count();
  run.factors = graph.factor_count();
  LbpResult scalar, vectorized;
  options.kernel = LbpKernel::kScalarReference;
  run.scalar_seconds = TimeKernel(graph, weights, options, reps, &scalar);
  options.kernel = LbpKernel::kVectorized;
  run.vectorized_seconds =
      TimeKernel(graph, weights, options, reps, &vectorized);
  run.speedup = run.vectorized_seconds > 0.0
                    ? run.scalar_seconds / run.vectorized_seconds
                    : 0.0;
  run.message_updates = vectorized.message_updates;
  run.sweeps = vectorized.iterations;
  // EXPECT_EQ-grade identity: identical op order means no bit may differ.
  run.byte_identical = vectorized.marginals == scalar.marginals &&
                       vectorized.final_residual == scalar.final_residual &&
                       vectorized.iterations == scalar.iterations;
  return run;
}

int Run() {
  int failures = 0;
  BenchEnv env = BenchEnv::FromEnv();
  Banner("LBP kernel: vectorized vs scalar, residual certificate", env);
  const std::vector<double> unit_weights = {1.0};
  const int reps = 3;

  // ---- synthetic head-component world -------------------------------------
  size_t head_vars = static_cast<size_t>(1200 * env.scale);
  if (head_vars < 120) head_vars = 120;
  Rng rng(env.seed);
  FactorGraph head_graph = MakeHeadHeavyGraph(&rng, head_vars);
  LbpOptions head_options;
  head_options.max_iterations = 30;

  TablePrinter table({"World", "Vars", "Factors", "Scalar (s)",
                      "Vectorized (s)", "Speedup", "Identical"});
  auto add_row = [&](const KernelRun& run) {
    table.AddRow({run.world, std::to_string(run.variables),
                  std::to_string(run.factors),
                  TablePrinter::Num(run.scalar_seconds, 3),
                  TablePrinter::Num(run.vectorized_seconds, 3),
                  TablePrinter::Num(run.speedup, 2) + "x",
                  run.byte_identical ? "yes" : "NO (bug!)"});
  };
  KernelRun head_run = CompareKernels("head sum-product", head_graph,
                                      unit_weights, head_options, reps);
  add_row(head_run);

  // ---- the real joint graph (generated ReVerb45K-like workload) -----------
  std::unique_ptr<DataPack> pack = DataPack::ReVerb(env);
  JoclProblem problem = BuildProblem(pack->dataset(), pack->signals(),
                                     pack->eval_triples());
  SignalCache cache = SignalCache::ForProblem(problem, pack->signals(),
                                              pack->dataset().ckb);
  JoclGraph jgraph = BuildJoclGraph(problem, cache, pack->dataset().ckb);
  std::vector<double> joint_weights = Jocl::DefaultWeights();
  LbpOptions joint_options;
  joint_options.factor_schedule = jgraph.schedule;
  KernelRun joint_run = CompareKernels("joint graph", jgraph.graph,
                                       joint_weights, joint_options, reps);
  add_row(joint_run);
  std::printf("%s\n", table.Render().c_str());

  if (!head_run.byte_identical || !joint_run.byte_identical) ++failures;
  // CI smoke floor: a vectorized kernel slower than 0.9x scalar on the
  // synthetic head world is a regression regardless of scale or machine
  // (the joint-graph row is reported but not floor-guarded — its wall
  // time includes too much shared non-kernel work to be noise-stable).
  if (head_run.speedup < 0.9) {
    std::printf("GUARD FAILED: vectorized below 0.9x scalar\n");
    ++failures;
  }
  // The scale-dependent acceptance bars hold at the default workload
  // (JOCL_BENCH_SCALE >= 1); at reduced smoke scales they are reported
  // but informational. The >= 1.5x bar is read on the head sum-product
  // world (see docs/benchmarks.md).
  const bool full_scale = env.scale >= 1.0;
  const bool accept_speedup = head_run.speedup >= 1.5;
  std::printf("acceptance (head sum-product vectorized >= 1.5x): %s%s\n\n",
              accept_speedup ? "PASS" : "FAIL",
              full_scale ? "" : " (informational below scale 1)");
  if (full_scale && !accept_speedup) ++failures;

  // ---- residual certificate vs a tight-tolerance reference ----------------
  // Both run the *vectorized* kernel. The reference runs the same schedule
  // to a far tighter tolerance on a large budget; the production
  // tolerance must certify its stop and reach the same decode.
  LbpOptions reference_options;
  reference_options.tolerance = 1e-10;
  reference_options.max_iterations = 1000;
  FlatLbpEngine reference_engine(&head_graph, &unit_weights,
                                 reference_options);
  LbpResult reference = reference_engine.Run();
  const std::vector<size_t> reference_decode = reference_engine.Decode();

  LbpOptions residual_options;
  residual_options.max_iterations = 60;
  FlatLbpEngine residual_engine(&head_graph, &unit_weights,
                                residual_options);
  Stopwatch residual_watch;
  LbpResult residual = residual_engine.Run();
  double residual_seconds = residual_watch.ElapsedSeconds();
  const bool decode_match = residual_engine.Decode() == reference_decode;

  std::printf("reference (tolerance %.0e): %zu message updates "
              "(converged: %s)\n",
              reference_options.tolerance, reference.message_updates,
              reference.converged ? "yes" : "no");
  std::printf("residual schedule: %zu message updates, %zu pops, %.3fs\n",
              residual.message_updates, residual.residual_pops,
              residual_seconds);
  std::printf("certificate: max residual %.2e at stop (tolerance %.0e), "
              "converged: %s, decode match: %s\n",
              residual.final_residual, residual_options.tolerance,
              residual.converged ? "yes" : "no",
              decode_match ? "yes" : "no");
  // Scale-independent correctness: a hard failure at every scale. An
  // unconverged reference would make the decode match meaningless.
  const bool residual_correct = reference.converged && residual.converged &&
                                residual.final_residual <
                                    residual_options.tolerance &&
                                decode_match;
  std::printf("acceptance (certified, decode-match): %s\n\n",
              residual_correct ? "PASS" : "FAIL");
  if (!residual_correct) ++failures;

  // ---- JSON artifact ------------------------------------------------------
  const char* out_path = std::getenv("JOCL_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_kernel.json";
  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scale\": %.3f,\n  \"seed\": %llu,\n", env.scale,
               static_cast<unsigned long long>(env.seed));
  std::fprintf(out, "  \"kernels\": [\n");
  const KernelRun* runs[] = {&head_run, &joint_run};
  const size_t run_count = 2;
  for (size_t i = 0; i < run_count; ++i) {
    const KernelRun& run = *runs[i];
    std::fprintf(out,
                 "    {\"world\": \"%s\", \"variables\": %zu, "
                 "\"factors\": %zu, \"scalar_seconds\": %.4f, "
                 "\"vectorized_seconds\": %.4f, \"speedup\": %.2f, "
                 "\"message_updates\": %zu, \"sweeps\": %zu, "
                 "\"byte_identical\": %s}%s\n",
                 run.world, run.variables, run.factors, run.scalar_seconds,
                 run.vectorized_seconds, run.speedup, run.message_updates,
                 run.sweeps, run.byte_identical ? "true" : "false",
                 i + 1 < run_count ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"residual\": {\"reference_updates\": %zu, "
               "\"reference_converged\": %s, "
               "\"residual_updates\": %zu, \"residual_pops\": %zu, "
               "\"certificate\": %.6e, \"tolerance\": %.0e, "
               "\"converged\": %s, \"decode_match\": %s, "
               "\"seconds\": %.4f},\n",
               reference.message_updates,
               reference.converged ? "true" : "false",
               residual.message_updates,
               residual.residual_pops, residual.final_residual,
               residual_options.tolerance,
               residual.converged ? "true" : "false",
               decode_match ? "true" : "false", residual_seconds);
  std::fprintf(out, "  \"guard_vectorized_ge_0_9x\": %s,\n",
               head_run.speedup >= 0.9 ? "true" : "false");
  std::fprintf(out, "  \"full_scale_acceptance\": %s,\n",
               full_scale ? "true" : "false");
  std::fprintf(out, "  \"acceptance_vectorized_ge_1_5x\": %s,\n",
               accept_speedup ? "true" : "false");
  std::fprintf(out, "  \"acceptance_residual_certified\": %s\n",
               residual_correct ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  if (failures > 0) {
    std::printf("%d correctness/acceptance check(s) FAILED\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace jocl

int main() { return jocl::bench::Run(); }

// End-to-end pipeline bench for the sharded runtime: where the time goes
// (problem, signal cache, shard execution, decode), what the signal cache
// saves per pair-signal query over the uncached bundle, and how wall clock
// scales with shard-level worker threads. Emits BENCH_pipeline.json
// (path: JOCL_BENCH_OUT, default ./BENCH_pipeline.json) for CI tracking.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/graph_builder.h"
#include "core/problem.h"
#include "core/runtime.h"
#include "core/signal_cache.h"

namespace jocl {
namespace bench {
namespace {

struct ThreadRun {
  size_t threads = 0;
  double seconds = 0.0;
  RuntimeStats stats;
};

void Run() {
  BenchEnv env = BenchEnv::FromEnv();
  Banner("End-to-end sharded runtime (ReVerb45K-like)", env);

  Dataset ds = GenerateReVerb45K(env.scale, env.seed).MoveValueOrDie();
  Stopwatch signal_watch;
  SignalBundle sig = BuildSignals(ds).MoveValueOrDie();
  double signal_s = signal_watch.ElapsedSeconds();
  std::printf("%zu triples, %zu test; signals built in %.2fs\n\n",
              ds.okb.size(), ds.test_triples.size(), signal_s);

  // ---- signal cache + graph build -----------------------------------------
  JoclProblem problem = BuildProblem(ds, sig, ds.test_triples);
  Stopwatch cache_watch;
  SignalCache cache = SignalCache::ForProblem(problem, sig, ds.ckb);
  double cache_build_s = cache_watch.ElapsedSeconds();
  Stopwatch cached_watch;
  JoclGraph cached = BuildJoclGraph(problem, cache, ds.ckb);
  double graph_cached_s = cached_watch.ElapsedSeconds();

  TablePrinter cache_table({"Graph build", "Seconds", "Factors"});
  cache_table.AddRow({"cache build", TablePrinter::Num(cache_build_s, 3), ""});
  cache_table.AddRow({"cached signals", TablePrinter::Num(graph_cached_s, 3),
                      std::to_string(cached.graph.factor_count())});
  std::printf("%s\n", cache_table.Render().c_str());

  // ---- isolated pairwise signal sweep -------------------------------------
  // Every blocked pair's signals through both providers: the uncached path
  // re-tokenizes and re-averages phrase vectors per query; the cache reads
  // precomputed unit vectors and interned ids.
  double sink = 0.0;
  auto sweep = [&](auto&& provider) {
    for (const auto& pair : problem.subject_pairs) {
      const auto& a = problem.subject_surfaces[pair.a];
      const auto& b = problem.subject_surfaces[pair.b];
      sink += provider.Emb(a, b) + provider.Ppdb(a, b);
    }
    for (const auto& pair : problem.object_pairs) {
      const auto& a = problem.object_surfaces[pair.a];
      const auto& b = problem.object_surfaces[pair.b];
      sink += provider.Emb(a, b) + provider.Ppdb(a, b);
    }
    for (const auto& pair : problem.predicate_pairs) {
      const auto& a = problem.predicate_surfaces[pair.a];
      const auto& b = problem.predicate_surfaces[pair.b];
      sink += provider.Emb(a, b) + provider.Ppdb(a, b) +
              provider.Amie(a, b) + provider.Kbp(a, b);
    }
  };
  const size_t n_pairs = problem.subject_pairs.size() +
                         problem.predicate_pairs.size() +
                         problem.object_pairs.size();
  Stopwatch bundle_sweep_watch;
  sweep(sig);
  double sweep_uncached_s = bundle_sweep_watch.ElapsedSeconds();
  Stopwatch cache_sweep_watch;
  sweep(cache);
  double sweep_cached_s = cache_sweep_watch.ElapsedSeconds();
  double sweep_speedup =
      sweep_cached_s > 0.0 ? sweep_uncached_s / sweep_cached_s : 0.0;
  std::printf("pair-signal sweep over %zu pairs: uncached %.4fs, cached "
              "%.4fs (%.1fx)%s\n\n",
              n_pairs, sweep_uncached_s, sweep_cached_s, sweep_speedup,
              sink > 1e300 ? "!" : "");

  // ---- thread scaling over the full pipeline ------------------------------
  std::vector<ThreadRun> runs;
  TablePrinter scale_table({"Threads", "Shards", "Total (s)", "Shard stage (s)",
                            "Speedup"});
  double base_seconds = 0.0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    RuntimeOptions runtime_options;
    runtime_options.num_threads = threads;
    runtime_options.max_shards = 0;  // one shard per sub-problem
    JoclRuntime runtime({}, runtime_options);
    ThreadRun run;
    run.threads = threads;
    Stopwatch watch;
    JoclResult result =
        runtime.Infer(ds, sig, ds.test_triples, {}, &run.stats)
            .MoveValueOrDie();
    run.seconds = watch.ElapsedSeconds();
    (void)result;
    if (threads == 1) base_seconds = run.seconds;
    scale_table.AddRow({std::to_string(threads),
                        std::to_string(run.stats.shards),
                        TablePrinter::Num(run.seconds, 3),
                        TablePrinter::Num(run.stats.shard_seconds, 3),
                        TablePrinter::Num(
                            run.seconds > 0.0 ? base_seconds / run.seconds
                                              : 0.0,
                            2)});
    runs.push_back(run);
  }
  std::printf("%s(results are byte-identical across all rows; the shard\n"
              " stage is the parallel build+infer portion)\n",
              scale_table.Render().c_str());

  // ---- JSON artifact ------------------------------------------------------
  const char* out_path = std::getenv("JOCL_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_pipeline.json";
  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scale\": %.3f,\n  \"seed\": %llu,\n", env.scale,
               static_cast<unsigned long long>(env.seed));
  std::fprintf(out, "  \"triples\": %zu,\n  \"test_triples\": %zu,\n",
               ds.okb.size(), ds.test_triples.size());
  std::fprintf(out, "  \"signals_seconds\": %.4f,\n", signal_s);
  std::fprintf(out,
               "  \"signal_cache\": {\n"
               "    \"cache_build_seconds\": %.4f,\n"
               "    \"cached_graph_seconds\": %.4f,\n"
               "    \"pair_signal_sweep\": {\"pairs\": %zu, "
               "\"uncached_seconds\": %.4f, \"cached_seconds\": %.4f, "
               "\"speedup\": %.3f}\n  },\n",
               cache_build_s, graph_cached_s, n_pairs, sweep_uncached_s,
               sweep_cached_s, sweep_speedup);
  std::fprintf(out, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const ThreadRun& run = runs[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"shards\": %zu, "
                 "\"components\": %zu, \"seconds\": %.4f, "
                 "\"shard_stage_seconds\": %.4f, \"decode_seconds\": %.4f, "
                 "\"speedup_vs_1\": %.3f}%s\n",
                 run.threads, run.stats.shards, run.stats.components,
                 run.seconds, run.stats.shard_seconds,
                 run.stats.decode_seconds,
                 run.seconds > 0.0 ? base_seconds / run.seconds : 0.0,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
}

}  // namespace
}  // namespace bench
}  // namespace jocl

int main() { jocl::bench::Run(); }

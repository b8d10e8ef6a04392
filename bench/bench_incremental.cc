// Incremental-session bench: what a JoclSession ingestion batch costs
// versus rebuilding everything with JoclRuntime::Infer, across batch
// sizes, plus the K-batch replay equivalence check (with removals).
// Emits BENCH_incremental.json (path: JOCL_BENCH_OUT, default
// ./BENCH_incremental.json) for CI tracking; tools/check_bench_trend.sh
// diffs it against the committed baseline.
//
// Acceptance bars (the bench hard-fails when one is missed):
//   * a longtail 1%-sized batch must be >= 5x faster than a full
//     rebuild, and every K-batch replay must be byte-identical to the
//     one-shot result;
//   * the head-component worst case must reach >= 2.5x vs a full
//     rebuild (byte-identical to the one-shot result);
//   * at scale >= 1 the longtail front-end (problem build + partition)
//     must stay <= 25% of the batch wall.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/runtime.h"
#include "core/session.h"

namespace jocl {
namespace bench {
namespace {

struct BatchRun {
  const char* kind = "";
  double fraction = 0.0;
  size_t batch_triples = 0;
  double incremental_seconds = 0.0;
  double speedup = 0.0;  // vs full rebuild
  SessionStats stats;
};

struct ReplayRun {
  size_t k = 0;
  bool with_removal = false;
  double total_seconds = 0.0;
  double max_batch_seconds = 0.0;
  bool identical = false;  // byte-identical decode + marginals
};

bool SameBytes(const JoclResult& a, const JoclResult& b) {
  return a.np_cluster == b.np_cluster && a.rp_cluster == b.rp_cluster &&
         a.np_link == b.np_link && a.rp_link == b.rp_link &&
         a.triples == b.triples &&
         a.diagnostics.marginals == b.diagnostics.marginals;
}

/// Problem build + partition — the stages the O(Δ) front-end shrinks.
/// (Signal-cache upkeep is reported separately.)
double FrontendSeconds(const SessionStats& stats) {
  return stats.problem_seconds + stats.partition_seconds;
}

/// Replays \p stream as \p k batches through a fresh session. When
/// \p with_removal is set, retires the first batch again after the full
/// replay and re-adds it (for k == 1 that is remove-everything /
/// re-add-everything), so the equivalence check also covers the removal
/// repair path. Timings cover every operation including the removal.
ReplayRun Replay(const Dataset& ds, const SignalBundle& sig,
                 const std::vector<size_t>& stream, size_t k,
                 bool with_removal, const JoclOptions& jocl_options,
                 const JoclResult& oneshot) {
  JoclSession session(&ds, &sig, jocl_options);
  ReplayRun run;
  run.k = k;
  run.with_removal = with_removal;
  auto step = [&](bool remove, const std::vector<size_t>& batch) {
    Stopwatch watch;
    Status status = remove ? session.RemoveTriples(batch)
                           : session.AddTriples(batch);
    double seconds = watch.ElapsedSeconds();
    if (!status.ok()) {
      std::printf("ERROR: %s\n", status.ToString().c_str());
      return false;
    }
    run.total_seconds += seconds;
    if (seconds > run.max_batch_seconds) run.max_batch_seconds = seconds;
    return true;
  };
  std::vector<size_t> first_batch;
  for (size_t b = 0; b < k; ++b) {
    size_t begin = b * stream.size() / k;
    size_t end = (b + 1) * stream.size() / k;
    std::vector<size_t> batch(stream.begin() + begin, stream.begin() + end);
    if (b == 0) first_batch = batch;
    if (!step(false, batch)) return run;
  }
  if (with_removal && !first_batch.empty()) {
    if (!step(true, first_batch)) return run;
    if (!step(false, first_batch)) return run;
  }
  run.identical = SameBytes(session.result(), oneshot);
  return run;
}

/// Prefills a session with everything but \p batch, then times the batch
/// — the steady-state cost against a warm store. Repeats the whole
/// prefill + batch measurement \p reps times with a fresh session each
/// (best-of, to shed scheduler noise on millisecond-scale batches) and
/// returns the fastest batch wall seconds with its stats; bumps
/// \p failures when any rep's landed result is not the one-shot result.
double MeasureBatch(const Dataset& ds, const SignalBundle& sig,
                    const std::vector<size_t>& stream,
                    const std::vector<size_t>& batch,
                    const JoclOptions& jocl_options,
                    const JoclResult& oneshot, int reps, SessionStats* stats,
                    int* failures) {
  std::vector<size_t> prefill;
  {
    std::vector<size_t> sorted_batch = batch;
    std::sort(sorted_batch.begin(), sorted_batch.end());
    for (size_t t : stream) {
      if (!std::binary_search(sorted_batch.begin(), sorted_batch.end(), t)) {
        prefill.push_back(t);
      }
    }
  }
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    JoclSession session(&ds, &sig, jocl_options);
    session.AddTriples(prefill);
    SessionStats rep_stats;
    Stopwatch watch;
    session.AddTriples(batch, &rep_stats);
    double seconds = watch.ElapsedSeconds();
    // The batch must land the session on the one-shot result exactly.
    if (!SameBytes(session.result(), oneshot)) {
      std::printf("ERROR: batch result differs from one-shot!\n");
      ++*failures;
    }
    if (rep == 0 || seconds < best) {
      best = seconds;
      *stats = rep_stats;
    }
  }
  return best;
}

int Run() {
  int failures = 0;
  BenchEnv env = BenchEnv::FromEnv();
  Banner("Incremental session vs full rebuild (ReVerb45K-like)", env);

  Dataset ds = GenerateReVerb45K(env.scale, env.seed).MoveValueOrDie();
  SignalBundle sig = BuildSignals(ds).MoveValueOrDie();
  const std::vector<size_t>& stream = ds.test_triples;
  std::printf("%zu triples, %zu streamed\n\n", ds.okb.size(), stream.size());

  // ---- full-rebuild baseline (best of 2, to shed cold-cache noise) --------
  const JoclOptions options;
  JoclRuntime runtime(options);
  double full_seconds = 0.0;
  JoclResult oneshot;
  for (int rep = 0; rep < 2; ++rep) {
    Stopwatch watch;
    oneshot = runtime.Infer(ds, sig, stream).MoveValueOrDie();
    double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < full_seconds) full_seconds = seconds;
  }
  std::printf("full rebuild (one-shot runtime): %.3fs\n\n", full_seconds);

  // ---- batch composition --------------------------------------------------
  // Incremental cost is proportional to the *dirty region*, not the batch
  // size, and the partition is heavy-tailed: one "head" component holds
  // the strongly blocked surfaces, the long tail is singletons. So two
  // 1%-sized batches bracket the range:
  //   * long-tail batch — triples that form their own small components
  //     (typical ingestion: new facts about new or rare entities). Only
  //     those small shards are dirtied; this is the acceptance metric.
  //   * head batch — triples attached to the largest component, whose
  //     exact re-inference is unavoidable under the byte-identity
  //     guarantee; the worst case.
  JoclProblem full_problem = BuildProblem(ds, sig, stream);
  ShardPlan full_plan = PartitionProblem(full_problem, 0);
  size_t giant = 0;
  for (size_t s = 1; s < full_plan.shards.size(); ++s) {
    if (full_plan.shards[s].triple_map.size() >
        full_plan.shards[giant].triple_map.size()) {
      giant = s;
    }
  }
  std::vector<size_t> longtail_pool;  // dataset ids outside the giant
  std::vector<size_t> head_pool;      // dataset ids of the giant component
  for (size_t s = 0; s < full_plan.shards.size(); ++s) {
    const auto& ids = full_plan.shards[s].problem.triples;
    auto& pool = (s == giant) ? head_pool : longtail_pool;
    pool.insert(pool.end(), ids.begin(), ids.end());
  }
  std::printf("largest component: %zu of %zu streamed triples "
              "(%zu components)\n\n",
              head_pool.size(), stream.size(), full_plan.shards.size());

  size_t one_pct = stream.size() / 100;
  if (one_pct == 0) one_pct = 1;
  auto take_tail = [](const std::vector<size_t>& pool, size_t n) {
    n = std::min(n, pool.size());
    return std::vector<size_t>(pool.end() - n, pool.end());
  };

  std::vector<BatchRun> batch_runs;
  TablePrinter table(
      {"Batch", "Triples", "Incremental (s)", "Dirty shards", "vs full"});
  auto measure = [&](const char* kind, double fraction, int reps,
                     const std::vector<size_t>& batch) {
    BatchRun run;
    run.kind = kind;
    run.fraction = fraction;
    run.batch_triples = batch.size();
    run.incremental_seconds =
        MeasureBatch(ds, sig, stream, batch, options, oneshot, reps,
                     &run.stats, &failures);
    run.speedup = run.incremental_seconds > 0.0
                      ? full_seconds / run.incremental_seconds
                      : 0.0;
    table.AddRow({kind, std::to_string(run.batch_triples),
                  TablePrinter::Num(run.incremental_seconds, 3),
                  std::to_string(run.stats.dirty_shards) + "/" +
                      std::to_string(run.stats.shards),
                  TablePrinter::Num(run.speedup, 1) + "x"});
    batch_runs.push_back(run);
  };
  // The longtail batch runs in single-digit milliseconds, where scheduler
  // noise rivals the measurement — best-of-3 for it, best-of-2 for the
  // gated head batch, single-shot for the mixed batches.
  measure("longtail 1%", 0.01, /*reps=*/3, take_tail(longtail_pool, one_pct));
  measure("head 1%", 0.01, /*reps=*/2, take_tail(head_pool, one_pct));
  measure("mixed 5%", 0.05, /*reps=*/1, take_tail(stream, 5 * one_pct));
  measure("mixed 10%", 0.10, /*reps=*/1, take_tail(stream, 10 * one_pct));
  std::printf("%s\n", table.Render().c_str());

  const BatchRun& longtail = batch_runs[0];
  const BatchRun& head = batch_runs[1];
  std::printf("longtail 1%% stage split: problem %.4fs, cache %.4fs, "
              "partition %.4fs, shards %.4fs (graph %.4fs + infer %.4fs), "
              "decode %.4fs\n",
              longtail.stats.problem_seconds, longtail.stats.cache_seconds,
              longtail.stats.partition_seconds, longtail.stats.shard_seconds,
              longtail.stats.graph_seconds, longtail.stats.infer_seconds,
              longtail.stats.decode_seconds);
  double frontend_share =
      longtail.incremental_seconds > 0.0
          ? FrontendSeconds(longtail.stats) / longtail.incremental_seconds
          : 0.0;
  // The share gate is a ratio: a faster decode shrinks its denominator and
  // raises the share while the front end itself does not move, so the
  // absolute times print beside it.
  const double longtail_frontend_ms = FrontendSeconds(longtail.stats) * 1e3;
  const double longtail_decode_ms = longtail.stats.decode_seconds * 1e3;
  std::printf("longtail 1%% front-end (problem + partition): %.3f ms = "
              "%.1f%% of batch wall; decode %.3f ms\n\n",
              longtail_frontend_ms, frontend_share * 100.0,
              longtail_decode_ms);

  // ---- acceptance gates ---------------------------------------------------
  bool gate_5x = longtail.speedup >= 5.0;
  bool gate_head = head.speedup >= 2.5;
  bool gate_frontend_share = frontend_share <= 0.25;
  bool enforce_frontend_share = env.scale >= 1.0;
  std::printf("acceptance (longtail 1%% >= 5x vs full): %s\n",
              gate_5x ? "PASS" : "FAIL");
  std::printf("acceptance (head 1%% >= 2.5x vs full): %s\n",
              gate_head ? "PASS" : "FAIL");
  std::printf("acceptance (longtail front-end <= 25%% of batch wall): %s%s\n",
              gate_frontend_share ? "PASS" : "FAIL",
              enforce_frontend_share ? "" : " (recorded only; scale < 1)");
  std::printf("\n");
  if (!gate_5x) ++failures;
  if (!gate_head) ++failures;
  if (enforce_frontend_share && !gate_frontend_share) ++failures;

  // ---- K-batch replay: equivalence + totals -------------------------------
  // Cold replays retire the first batch again and re-add it, so the
  // equivalence also proves the removal repair path (K=1 is the
  // remove-everything / re-add-everything stress).
  std::vector<ReplayRun> replays;
  for (size_t k : {1u, 4u, 16u}) {
    ReplayRun cold = Replay(ds, sig, stream, k, /*with_removal=*/true,
                            options, oneshot);
    std::printf("replay K=%-2zu cold+removal: total %.3fs (max batch %.3fs), "
                "byte-identical: %s\n",
                k, cold.total_seconds, cold.max_batch_seconds,
                cold.identical ? "yes" : "NO (bug!)");
    if (!cold.identical) ++failures;
    replays.push_back(cold);
  }

  // ---- JSON artifact ------------------------------------------------------
  const char* out_path = std::getenv("JOCL_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_incremental.json";
  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scale\": %.3f,\n  \"seed\": %llu,\n", env.scale,
               static_cast<unsigned long long>(env.seed));
  std::fprintf(out, "  \"triples\": %zu,\n  \"streamed_triples\": %zu,\n",
               ds.okb.size(), stream.size());
  std::fprintf(out, "  \"full_rebuild_seconds\": %.4f,\n", full_seconds);
  std::fprintf(out, "  \"batches\": [\n");
  for (size_t i = 0; i < batch_runs.size(); ++i) {
    const BatchRun& run = batch_runs[i];
    std::fprintf(out,
                 "    {\"kind\": \"%s\", "
                 "\"fraction\": %.3f, \"batch_triples\": %zu, "
                 "\"incremental_seconds\": %.4f, "
                 "\"speedup_vs_full\": %.2f, "
                 "\"dirty_shards\": %zu, \"clean_shards\": %zu, "
                 "\"total_shards\": %zu, "
                 "\"problem_seconds\": %.4f, \"cache_seconds\": %.4f, "
                 "\"partition_seconds\": %.4f, \"shard_seconds\": %.4f, "
                 "\"graph_seconds\": %.4f, \"infer_seconds\": %.4f, "
                 "\"decode_seconds\": %.4f, \"frontend_seconds\": %.4f, "
                 "\"cache_new_phrases\": %zu}%s\n",
                 run.kind, run.fraction, run.batch_triples,
                 run.incremental_seconds, run.speedup, run.stats.dirty_shards,
                 run.stats.clean_shards, run.stats.shards,
                 run.stats.problem_seconds,
                 run.stats.cache_seconds, run.stats.partition_seconds,
                 run.stats.shard_seconds, run.stats.graph_seconds,
                 run.stats.infer_seconds, run.stats.decode_seconds,
                 FrontendSeconds(run.stats), run.stats.cache_new_phrases,
                 i + 1 < batch_runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"replays\": [\n");
  for (size_t i = 0; i < replays.size(); ++i) {
    const ReplayRun& run = replays[i];
    std::fprintf(out,
                 "    {\"k\": %zu, \"with_removal\": %s, "
                 "\"total_seconds\": %.4f, \"max_batch_seconds\": %.4f, "
                 "\"byte_identical\": %s}%s\n",
                 run.k, run.with_removal ? "true" : "false",
                 run.total_seconds, run.max_batch_seconds,
                 run.identical ? "true" : "false",
                 i + 1 < replays.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // Absolute longtail front end and decode, beside the ratios below.
  std::fprintf(out, "  \"longtail_frontend_ms\": %.3f,\n",
               longtail_frontend_ms);
  std::fprintf(out, "  \"longtail_decode_ms\": %.3f,\n", longtail_decode_ms);
  // Gated metrics — tools/check_bench_trend.sh diffs these against the
  // committed baseline and warns on >20% regressions.
  std::fprintf(out, "  \"longtail_speedup_vs_full\": %.2f,\n",
               longtail.speedup);
  std::fprintf(out, "  \"head_residual_speedup_vs_full\": %.2f,\n",
               head.speedup);
  std::fprintf(out, "  \"longtail_frontend_share\": %.4f,\n", frontend_share);
  std::fprintf(out, "  \"acceptance_1pct_speedup_ge_5x\": %s,\n",
               gate_5x ? "true" : "false");
  std::fprintf(out, "  \"acceptance_head_residual_ge_2_5x\": %s,\n",
               gate_head ? "true" : "false");
  std::fprintf(out, "  \"acceptance_frontend_share_le_25pct\": %s\n",
               gate_frontend_share ? "true" : "false");
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

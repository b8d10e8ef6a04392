// jocl_stream — streaming ingestion driver over the incremental
// JoclSession (core/session.h).
//
// Replays a generated benchmark as N ingestion batches through a
// long-lived session, reporting per-batch latency and how much of the
// partition each batch actually dirtied, then verifies the final state
// against a one-shot JoclRuntime::Infer (byte-identical — the session's
// cold-restart equivalence guarantee) and demonstrates removal by
// retiring the first batch again, verified the same way. Exits 1 when
// either check fails.
//
// Usage:
//   jocl_stream [scale] [--batches N] [--threads N] [--frontend-threads N]
//               [--no-remove] [--snapshot-out=PATH] [--trace-out=PATH]
//
//   scale         workload scale (default 0.5; 1.0 ≈ 3K triples)
//   --batches N   number of ingestion batches (default 8)
//   --threads N   dirty-shard worker threads (0 = hardware, default)
//   --frontend-threads N
//                 front-end worker threads (candidate generation,
//                 similarity, shard materialization; 0 = hardware)
//   --no-remove   skip the removal demonstration
//   --snapshot-out=PATH
//                 persist a CanonStore snapshot after every batch (the
//                 final write is the replay's final state; serve it with
//                 `jocl_serve --snapshot PATH`)
//   --trace-out=PATH
//                 dump the replay's pipeline spans as Chrome trace-event
//                 JSON (open in chrome://tracing or Perfetto);
//                 byte-identical across runs modulo timestamps
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "core/session.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "eval/linking_metrics.h"
#include "obs/trace.h"
#include "serve/canon_store.h"
#include "serve/snapshot_io.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace jocl;

namespace {

/// Decode fields and marginals equal bit for bit.
bool SameBytes(const JoclResult& a, const JoclResult& b) {
  return a.np_cluster == b.np_cluster && a.rp_cluster == b.rp_cluster &&
         a.np_link == b.np_link && a.rp_link == b.rp_link &&
         a.triples == b.triples &&
         a.diagnostics.marginals == b.diagnostics.marginals;
}

void PrintBatch(size_t index, const char* verb, size_t batch_size,
                double seconds, const SessionStats& stats,
                size_t snapshot_bytes) {
  std::printf(
      "  batch %2zu: %s %4zu triples in %6.3fs  "
      "(%zu/%zu shards dirty, %zu new phrases, "
      "problem cache %zu hit/%zu miss)",
      index, verb, batch_size, seconds, stats.dirty_shards, stats.shards,
      stats.cache_new_phrases, stats.problem_cache_hits,
      stats.problem_cache_misses);
  std::printf("  %zu msg updates, %zu unconverged", stats.message_updates,
              stats.unconverged_components);
  if (snapshot_bytes > 0) {
    std::printf("  snapshot %zu bytes", snapshot_bytes);
  }
  std::printf("\n");
  std::printf(
      "            stages: problem %.1fms  cache %.1fms  partition %.1fms  "
      "shards %.1fms  decode %.1fms%s\n",
      stats.problem_seconds * 1e3, stats.cache_seconds * 1e3,
      stats.partition_seconds * 1e3, stats.shard_seconds * 1e3,
      stats.decode_seconds * 1e3,
      stats.frontend_reused ? "  (front-end reused)" : "");
}

/// Persists the session's current state as a snapshot; returns the file
/// size (0 when disabled or failed).
size_t EmitSnapshot(const JoclSession& session, const Dataset& ds,
                    const std::string& path) {
  if (path.empty()) return 0;
  // The snapshot write is the replay's "publish" stage: the moment the
  // batch's result becomes visible outside the session.
  ScopedSpan publish_span("publish");
  CanonStore store = BuildCanonStore(session.problem(), session.result(),
                                     ds.ckb, session.generation());
  size_t bytes = 0;
  Status status = SaveSnapshot(store, path, &bytes);
  if (!status.ok()) {
    std::fprintf(stderr, "snapshot save failed: %s\n",
                 status.ToString().c_str());
    return 0;
  }
  return bytes;
}

int Usage() {
  std::fprintf(stderr,
               "usage: jocl_stream [scale] [--batches N] [--threads N]"
               " [--frontend-threads N]\n"
               "                   [--no-remove] [--snapshot-out=PATH]"
               " [--trace-out=PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.5;
  size_t batches = 8;
  SessionOptions session_options;
  bool do_remove = true;
  std::string snapshot_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--batches") == 0 && i + 1 < argc) {
      if (!ParseCount("--batches", argv[++i], &batches)) return Usage();
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!ParseCount("--threads", argv[++i], &session_options.num_threads)) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--frontend-threads") == 0 &&
               i + 1 < argc) {
      if (!ParseCount("--frontend-threads", argv[++i],
                      &session_options.frontend_threads)) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--no-remove") == 0) {
      do_remove = false;
    } else if (std::strncmp(argv[i], "--snapshot-out=", 15) == 0) {
      snapshot_out = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--snapshot-out") == 0 && i + 1 < argc) {
      snapshot_out = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      scale = std::atof(argv[i]);
      if (scale <= 0) scale = 0.5;
    }
  }
  if (batches == 0) batches = 1;
  TraceRecorder recorder;
  std::optional<ScopedTraceSession> trace;
  if (!trace_out.empty()) trace.emplace(&recorder);

  std::printf("generating ReVerb45K-like benchmark (scale %.2f)...\n", scale);
  Dataset ds = GenerateReVerb45K(scale).MoveValueOrDie();
  std::printf("building signals (IDF, word2vec, AMIE, KBP)...\n");
  SignalBundle sig = BuildSignals(ds).MoveValueOrDie();
  const std::vector<size_t>& stream = ds.test_triples;
  std::printf("replaying %zu test triples as %zu ingestion batches...\n\n",
              stream.size(), batches);

  JoclSession session(&ds, &sig, {}, session_options);
  double total_seconds = 0.0;
  std::vector<size_t> first_batch;
  for (size_t b = 0; b < batches; ++b) {
    size_t begin = b * stream.size() / batches;
    size_t end = (b + 1) * stream.size() / batches;
    std::vector<size_t> batch(stream.begin() + begin, stream.begin() + end);
    if (b == 0) first_batch = batch;
    SessionStats stats;
    Stopwatch watch;
    Status status = session.AddTriples(batch, &stats);
    double seconds = watch.ElapsedSeconds();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    total_seconds += seconds;
    PrintBatch(b, "added  ", batch.size(), seconds, stats,
               EmitSnapshot(session, ds, snapshot_out));
  }

  // ---- compare against one-shot inference --------------------------------
  RuntimeOptions runtime_options;
  runtime_options.num_threads = session_options.num_threads;
  JoclRuntime runtime({}, runtime_options);
  Stopwatch full_watch;
  JoclResult oneshot =
      runtime.Infer(ds, sig, session.active_triples()).MoveValueOrDie();
  double full_seconds = full_watch.ElapsedSeconds();
  std::printf("\nreplay total %.3fs; one-shot full inference %.3fs\n",
              total_seconds, full_seconds);
  bool identical = SameBytes(session.result(), oneshot);
  std::printf("byte-identical to one-shot: %s\n",
              identical ? "yes" : "NO (bug!)");
  if (!identical) return 1;

  // ---- evaluation over the streamed result -------------------------------
  std::vector<size_t> gold_np;
  std::vector<int64_t> gold_entities;
  for (size_t t : session.active_triples()) {
    gold_np.push_back(static_cast<size_t>(ds.gold_np_group[t * 2]));
    gold_np.push_back(static_cast<size_t>(ds.gold_np_group[t * 2 + 1]));
    gold_entities.push_back(ds.gold_subject_entity[t]);
    gold_entities.push_back(ds.gold_object_entity[t]);
  }
  ClusteringScore score =
      EvaluateClustering(session.result().np_cluster, gold_np);
  std::printf("NP canonicalization: macro %.3f  micro %.3f  pairwise %.3f\n",
              score.macro.f1, score.micro.f1, score.pairwise.f1);
  std::printf("entity linking accuracy: %.3f\n",
              LinkingAccuracy(session.result().np_link, gold_entities));

  // ---- removal demonstration ---------------------------------------------
  if (do_remove && !first_batch.empty()) {
    std::printf("\nretiring the first batch again...\n");
    SessionStats stats;
    Stopwatch watch;
    Status status = session.RemoveTriples(first_batch, &stats);
    double seconds = watch.ElapsedSeconds();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    PrintBatch(0, "removed", first_batch.size(), seconds, stats,
               EmitSnapshot(session, ds, snapshot_out));
    JoclResult remaining =
        runtime.Infer(ds, sig, session.active_triples()).MoveValueOrDie();
    bool identical_after = SameBytes(session.result(), remaining);
    std::printf("byte-identical after removal: %s\n",
                identical_after ? "yes" : "NO (bug!)");
    if (!identical_after) return 1;
  }
  if (!trace_out.empty()) {
    trace.reset();  // no span may still be open when we dump
    if (!recorder.WriteChromeJson(trace_out)) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("wrote %zu trace spans to %s\n", recorder.Spans().size(),
                trace_out.c_str());
  }
  return 0;
}

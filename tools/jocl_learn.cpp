// jocl_learn — sharded weight-learning driver (core/sharded_learner.h).
//
// Generates a benchmark, splits its labeled validation triples into a
// train/holdout pair, learns shared factor weights on the sharded
// learning runtime with a per-iteration trace, evaluates learned vs
// uniform weights on the holdout, and optionally demonstrates the live
// hot-swap path: a running JoclSession is retrained in place via
// UpdateWeights and verified byte-identical to a cold session started
// with the learned weights.
//
// Usage:
//   jocl_learn [scale] [--threads N] [--shards N] [--iterations N]
//              [--lr X] [--l2 X] [--holdout F] [--weights-out PATH]
//              [--session-apply]
//
//   scale             workload scale (default 0.5; 1.0 ≈ 3K triples)
//   --threads N       expectation-pass worker threads (0 = hardware)
//   --shards N        scheduling bins (0 = one per component)
//   --iterations N    gradient-ascent iterations (default 15)
//   --lr X            learning rate (default 0.05, paper §4.1)
//   --l2 X            L2 strength toward the uniform prior (default 0.08)
//   --holdout F       fraction of validation triples held out (default 0.2)
//   --weights-out P   save learned weights (header TSV, weights_io.h) and
//                     verify they reload byte-identically
//   --session-apply   run the learn → infer → serve hot-swap demo
//
// --threads, --shards and --iterations take non-negative integers;
// anything else prints usage and exits 2. Both --threads and --shards are
// pure execution knobs: the learned weights are byte-identical for every
// setting (core/sharded_learner.h).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/sharded_learner.h"
#include "core/weights_io.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "eval/linking_metrics.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace jocl;

namespace {

bool SameDecode(const JoclResult& a, const JoclResult& b) {
  return a.np_cluster == b.np_cluster && a.rp_cluster == b.rp_cluster &&
         a.np_link == b.np_link && a.rp_link == b.rp_link &&
         a.triples == b.triples;
}

struct EvalScore {
  double np_f1 = 0.0;
  double link_acc = 0.0;
};

EvalScore Evaluate(const Dataset& ds, const JoclResult& result,
                   const std::vector<size_t>& triples) {
  std::vector<size_t> gold_np;
  std::vector<int64_t> gold_entities;
  for (size_t t : triples) {
    gold_np.push_back(static_cast<size_t>(ds.gold_np_group[t * 2]));
    gold_np.push_back(static_cast<size_t>(ds.gold_np_group[t * 2 + 1]));
    gold_entities.push_back(ds.gold_subject_entity[t]);
    gold_entities.push_back(ds.gold_object_entity[t]);
  }
  EvalScore score;
  score.np_f1 = EvaluateClustering(result.np_cluster, gold_np).average_f1;
  score.link_acc = LinkingAccuracy(result.np_link, gold_entities);
  return score;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  jocl_learn [scale] [--threads N] [--shards N]"
               " [--iterations N]\n"
               "             [--lr X] [--l2 X] [--holdout F]"
               " [--weights-out PATH]\n"
               "             [--session-apply]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.5;
  double holdout_fraction = 0.2;
  std::string weights_out;
  bool session_apply = false;
  JoclOptions options;
  RuntimeOptions runtime;
  for (int i = 1; i < argc; ++i) {
    auto value_of = [&](const char* flag) -> const char* {
      const size_t flag_len = std::strlen(flag);
      if (std::strncmp(argv[i], flag, flag_len) == 0 &&
          argv[i][flag_len] == '=') {
        return argv[i] + flag_len + 1;
      }
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        return argv[++i];
      }
      return nullptr;
    };
    if (const char* v = value_of("--threads")) {
      if (!ParseCount("--threads", v, &runtime.num_threads)) return Usage();
    } else if (const char* v = value_of("--shards")) {
      if (!ParseCount("--shards", v, &runtime.max_shards)) return Usage();
    } else if (const char* v = value_of("--iterations")) {
      if (!ParseCount("--iterations", v, &options.learner.iterations)) {
        return Usage();
      }
    } else if (const char* v = value_of("--lr")) {
      options.learner.learning_rate = std::atof(v);
    } else if (const char* v = value_of("--l2")) {
      options.learner.l2 = std::atof(v);
    } else if (const char* v = value_of("--holdout")) {
      holdout_fraction = std::atof(v);
    } else if (const char* v = value_of("--weights-out")) {
      weights_out = v;
    } else if (std::strcmp(argv[i], "--session-apply") == 0) {
      session_apply = true;
    } else {
      scale = std::atof(argv[i]);
      if (scale <= 0) scale = 0.5;
    }
  }
  if (holdout_fraction < 0.0 || holdout_fraction >= 1.0) {
    holdout_fraction = 0.2;
  }

  std::printf("generating ReVerb45K-like benchmark (scale %.2f)...\n", scale);
  Dataset ds = GenerateReVerb45K(scale).MoveValueOrDie();
  std::printf("building signals (IDF, word2vec, AMIE, KBP)...\n");
  SignalBundle sig = BuildSignals(ds).MoveValueOrDie();

  // ---- train/holdout split (deterministic decimation) ----------------------
  // Every index where the running fraction crosses an integer is held
  // out, so any fraction in [0, 1) is honored evenly across the split.
  const std::vector<size_t>& validation = ds.validation_triples;
  std::vector<size_t> train;
  std::vector<size_t> holdout;
  for (size_t i = 0; i < validation.size(); ++i) {
    const bool hold =
        std::floor(static_cast<double>(i + 1) * holdout_fraction) >
        std::floor(static_cast<double>(i) * holdout_fraction);
    (hold ? holdout : train).push_back(validation[i]);
  }
  std::printf("validation split: %zu train / %zu holdout triples\n\n",
              train.size(), holdout.size());

  // ---- learn ---------------------------------------------------------------
  ShardedLearner learner(options, runtime);
  LearnerRunStats stats;
  Stopwatch watch;
  Result<LearnerResult> learned_result =
      learner.Learn(ds, sig, train, Jocl::DefaultWeights(), &stats);
  if (!learned_result.ok()) return Fail(learned_result.status());
  LearnerResult learned = learned_result.MoveValueOrDie();
  double learn_seconds = watch.ElapsedSeconds();

  std::printf(
      "learning runtime: %zu labels over %zu components in %zu bins\n"
      "  problem build   %.2fs\n"
      "  signal cache    %.2fs\n"
      "  partition       %.2fs\n"
      "  graph setup     %.2fs (%zu variables, %zu factors)\n"
      "  gradient ascent %.2fs (%zu iterations%s)\n",
      stats.labels, stats.components, stats.bins, stats.problem_seconds,
      stats.cache_seconds, stats.partition_seconds, stats.setup_seconds,
      stats.variables, stats.factors, stats.learn_seconds,
      learned.trace.size(), learned.converged ? ", converged" : "");
  for (const LearnerTrace& trace : learned.trace) {
    std::printf("    iter %2zu  objective %+10.4f  grad max-norm %8.5f  "
                "%.3fs\n",
                trace.iteration, trace.objective, trace.gradient_max_norm,
                trace.seconds);
  }
  std::printf("  total           %.2fs\n\n", learn_seconds);
  // Sanity for CI smoke runs: gradient ascent must make progress — the
  // gradient shrinks and the objective estimate rises across the run.
  if (learned.trace.size() >= 2) {
    const LearnerTrace& first = learned.trace.front();
    const LearnerTrace& last = learned.trace.back();
    if (last.gradient_max_norm >= first.gradient_max_norm ||
        last.objective <= first.objective) {
      std::fprintf(stderr, "error: learning did not converge (grad %f -> %f, "
                           "objective %f -> %f)\n",
                   first.gradient_max_norm, last.gradient_max_norm,
                   first.objective, last.objective);
      return 1;
    }
  }

  // ---- weights round-trip --------------------------------------------------
  if (!weights_out.empty()) {
    Status save = SaveWeights(learned.weights, weights_out);
    if (!save.ok()) return Fail(save);
    Result<std::vector<double>> reloaded = LoadWeights(weights_out);
    if (!reloaded.ok()) return Fail(reloaded.status());
    if (reloaded.ValueOrDie() != learned.weights) {
      std::fprintf(stderr, "error: weights did not round-trip through %s\n",
                   weights_out.c_str());
      return 1;
    }
    std::printf("saved %zu weights to %s (header TSV, round-trip OK)\n\n",
                learned.weights.size(), weights_out.c_str());
  }

  // ---- holdout evaluation --------------------------------------------------
  if (!holdout.empty()) {
    Jocl jocl(options);
    JoclResult uniform_result =
        jocl.Infer(ds, sig, holdout, Jocl::DefaultWeights()).MoveValueOrDie();
    JoclResult learned_infer =
        jocl.Infer(ds, sig, holdout, learned.weights).MoveValueOrDie();
    EvalScore uniform_score = Evaluate(ds, uniform_result, holdout);
    EvalScore learned_score = Evaluate(ds, learned_infer, holdout);
    std::printf("holdout (%zu triples):\n", holdout.size());
    std::printf("  uniform weights: NP avg F1 %.3f  linking acc %.3f\n",
                uniform_score.np_f1, uniform_score.link_acc);
    std::printf("  learned weights: NP avg F1 %.3f  linking acc %.3f\n\n",
                learned_score.np_f1, learned_score.link_acc);
  }

  // ---- live hot-swap demo --------------------------------------------------
  if (session_apply) {
    std::printf("session hot-swap demo over %zu test triples...\n",
                ds.test_triples.size());
    JoclSession session(&ds, &sig, options);
    size_t publishes = 0;
    session.SetPublishCallback(
        [&publishes](const JoclSession&) { ++publishes; });
    Status status = session.AddTriples(ds.test_triples);
    if (!status.ok()) return Fail(status);
    JoclResult before = session.result();

    SessionStats swap_stats;
    Stopwatch swap_watch;
    status = session.UpdateWeights(learned.weights, &swap_stats);
    if (!status.ok()) return Fail(status);
    double swap_seconds = swap_watch.ElapsedSeconds();

    size_t decode_changes = 0;
    const JoclResult& after = session.result();
    for (size_t i = 0; i < after.np_cluster.size(); ++i) {
      if (before.np_cluster[i] != after.np_cluster[i]) ++decode_changes;
    }
    for (size_t i = 0; i < after.np_link.size(); ++i) {
      if (before.np_link[i] != after.np_link[i]) ++decode_changes;
    }
    std::printf("  UpdateWeights: re-inferred %zu shards in %.3fs, "
                "%zu publishes fired, %zu decode changes\n",
                swap_stats.dirty_shards, swap_seconds, publishes,
                decode_changes);

    // Hot-swap ≡ cold restart with the same weights (the session's
    // equivalence guarantee).
    JoclSession cold(&ds, &sig, options, {}, learned.weights);
    status = cold.AddTriples(ds.test_triples);
    if (!status.ok()) return Fail(status);
    bool identical = SameDecode(session.result(), cold.result()) &&
                     session.result().diagnostics.marginals ==
                         cold.result().diagnostics.marginals;
    std::printf("  hot-swap byte-identical to cold restart: %s\n",
                identical ? "yes" : "NO (bug!)");
    if (!identical) return 1;
  }
  return 0;
}

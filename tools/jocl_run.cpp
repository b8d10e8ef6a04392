// jocl_run — end-to-end command-line driver.
//
// Modes:
//   jocl_run generate <reverb|nytimes> <scale> <out.tsv>
//       Generate a synthetic benchmark and write its triples + gold TSV.
//   jocl_run demo [scale] [--threads N] [--shards N]
//       Generate, learn, infer and print evaluation + weight report.
//   jocl_run weights <out.tsv> [scale]
//       Learn weights on a generated validation split and save them.
//
// Runtime flags (accepted anywhere after the mode):
//   --threads N   shard-level worker threads (0 = hardware, default)
//   --shards N    shard count (0 = one per independent sub-problem)
// N must be a non-negative integer; anything else prints usage and exits 2.
// Both are pure execution knobs: the result is byte-identical for every
// setting (see core/runtime.h).
//
// Kernel flag (demo mode):
//   --kernel vectorized|scalar   message-update kernel of learning and
//                                inference (byte-identical; scalar is the
//                                reference baseline)
// An unknown value prints usage and exits 2.
//
// Tracing (demo and weights modes):
//   --trace-out PATH   dump the pipeline's spans as Chrome trace-event
//                      JSON (open in chrome://tracing or Perfetto);
//                      byte-identical across runs modulo timestamps
//
// In demo and weights modes any other argument that starts with "--"
// prints usage and exits 2.
//
// The TSV format is documented in data/dataset_io.h. Real deployments
// would load their own triples with LoadTriplesTsv and construct a
// CuratedKb from their KB dump; the synthetic path exists so the binary
// is usable out of the box.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/jocl.h"
#include "core/runtime.h"
#include "core/weights_io.h"
#include "data/dataset_io.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "eval/linking_metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

using namespace jocl;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  jocl_run generate <reverb|nytimes> <scale> <out.tsv>\n"
               "  jocl_run demo [scale] [--threads N] [--shards N]\n"
               "               [--kernel vectorized|scalar]"
               " [--trace-out PATH]\n"
               "  jocl_run weights <out.tsv> [scale] [--trace-out PATH]\n");
  return 2;
}

// Strips --threads/--shards (either "--flag N" or "--flag=N") from argv,
// returning the remaining positional count, or -1 after naming every
// malformed value.
int ParseRuntimeFlags(int argc, char** argv, RuntimeOptions* runtime) {
  int kept = 0;
  bool malformed = false;
  for (int i = 0; i < argc; ++i) {
    auto value_of = [&](const char* flag, size_t* out) {
      size_t len = std::strlen(flag);
      if (std::strncmp(argv[i], flag, len) != 0) return false;
      const char* text = nullptr;
      if (argv[i][len] == '=') {
        text = argv[i] + len + 1;
      } else if (argv[i][len] == '\0' && i + 1 < argc) {
        text = argv[++i];
      } else {
        return false;
      }
      if (!ParseCount(flag, text, out)) malformed = true;
      return true;
    };
    if (value_of("--threads", &runtime->num_threads)) continue;
    if (value_of("--shards", &runtime->max_shards)) continue;
    argv[kept++] = argv[i];
  }
  return malformed ? -1 : kept;
}

// Strips --kernel (either "--kernel VALUE" or "--kernel=VALUE") from
// argv, returning the remaining positional count, or -1 after naming an
// unknown value.
int ParseKernelFlag(int argc, char** argv, LbpKernel* kernel) {
  int kept = 0;
  bool unknown = false;
  for (int i = 0; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strncmp(argv[i], "--kernel=", 9) == 0) {
      value = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      value = argv[++i];
    } else {
      argv[kept++] = argv[i];
      continue;
    }
    if (std::strcmp(value, "scalar") == 0) {
      *kernel = LbpKernel::kScalarReference;
    } else if (std::strcmp(value, "vectorized") == 0) {
      *kernel = LbpKernel::kVectorized;
    } else {
      std::fprintf(stderr, "unknown --kernel value: %s\n", value);
      unknown = true;
    }
  }
  return unknown ? -1 : kept;
}

// Strips --trace-out (either "--trace-out PATH" or "--trace-out=PATH")
// from argv, returning the remaining positional count. An empty path
// leaves tracing off.
int ParseTraceFlag(int argc, char** argv, std::string* path) {
  int kept = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      path->assign(argv[i] + 12);
      continue;
    }
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      path->assign(argv[++i]);
      continue;
    }
    argv[kept++] = argv[i];
  }
  return kept;
}

// Names the first argument left after flag parsing that looks like a
// flag (a misspelled or unsupported one); returns whether there was one.
bool HasUnknownFlag(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return true;
    }
  }
  return false;
}

// Uninstalls the session (no span may still be open), then writes the
// dump. Shared exit path for demo and weights modes.
int WriteTrace(std::optional<ScopedTraceSession>* session,
               const TraceRecorder& recorder, const std::string& path) {
  if (path.empty()) return 0;
  session->reset();
  if (!recorder.WriteChromeJson(path)) {
    std::fprintf(stderr, "error: cannot write trace to %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu trace spans to %s\n", recorder.Spans().size(),
              path.c_str());
  return 0;
}

Dataset Generate(const char* kind, double scale) {
  if (std::strcmp(kind, "nytimes") == 0) {
    return GenerateNYTimes2018(scale).MoveValueOrDie();
  }
  return GenerateReVerb45K(scale).MoveValueOrDie();
}

int RunGenerate(int argc, char** argv) {
  if (argc < 5) return Usage();
  double scale = std::atof(argv[3]);
  if (scale <= 0) scale = 1.0;
  Dataset ds = Generate(argv[2], scale);
  Status st = SaveTriplesTsv(ds, argv[4]);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu triples to %s\n", ds.okb.size(), argv[4]);
  return 0;
}

int RunDemo(int argc, char** argv) {
  RuntimeOptions runtime_options;
  argc = ParseRuntimeFlags(argc, argv, &runtime_options);
  if (argc < 0) return Usage();
  JoclOptions jocl_options;
  argc = ParseKernelFlag(argc, argv, &jocl_options.inference.kernel);
  if (argc < 0) return Usage();
  jocl_options.learner.lbp.kernel = jocl_options.inference.kernel;
  std::string trace_path;
  argc = ParseTraceFlag(argc, argv, &trace_path);
  if (HasUnknownFlag(argc, argv)) return Usage();
  TraceRecorder recorder;
  std::optional<ScopedTraceSession> trace;
  if (!trace_path.empty()) trace.emplace(&recorder);
  double scale = argc > 2 ? std::atof(argv[2]) : 0.5;
  std::printf("generating ReVerb45K-like benchmark (scale %.2f)...\n", scale);
  Dataset ds = GenerateReVerb45K(scale).MoveValueOrDie();
  std::printf("building signals (IDF, word2vec, AMIE, KBP)...\n");
  SignalBundle sig = BuildSignals(ds).MoveValueOrDie();

  Jocl jocl(jocl_options);
  std::printf("learning weights on the validation split...\n");
  std::vector<double> weights = jocl.LearnWeights(ds, sig).MoveValueOrDie();
  std::printf("running joint inference over %zu test triples...\n",
              ds.test_triples.size());
  JoclRuntime runtime(jocl.options(), runtime_options);
  RuntimeStats stats;
  JoclResult result =
      runtime.Infer(ds, sig, ds.test_triples, weights, &stats)
          .MoveValueOrDie();
  // Signal-cache build and graph build are separate line items (and the
  // shard stage splits into graph building vs inference), so the stages a
  // streaming session skips or shrinks are visible here too.
  std::printf(
      "runtime: %zu independent sub-problems in %zu shards\n"
      "  problem build   %.2fs\n"
      "  signal cache    %.2fs\n"
      "  partition       %.2fs\n"
      "  shard stage     %.2fs wall (graph build %.2fs + inference %.2fs, "
      "summed over workers)\n"
      "  decode          %.2fs\n",
      stats.components, stats.shards, stats.problem_seconds,
      stats.cache_seconds, stats.partition_seconds, stats.shard_seconds,
      stats.graph_seconds, stats.infer_seconds, stats.decode_seconds);
  std::printf("  kernel          %zu message updates, %zu residual pops, "
              "%zu sweeps' budget unspent\n",
              stats.message_updates, stats.residual_pops,
              stats.sweeps_skipped);

  // The evaluation/report stage is the demo's "publish": what a
  // deployment does with the finished result.
  std::optional<ScopedSpan> publish_span;
  publish_span.emplace("publish");
  std::vector<size_t> gold_np;
  std::vector<int64_t> gold_entities;
  for (size_t t : ds.test_triples) {
    gold_np.push_back(static_cast<size_t>(ds.gold_np_group[t * 2]));
    gold_np.push_back(static_cast<size_t>(ds.gold_np_group[t * 2 + 1]));
    gold_entities.push_back(ds.gold_subject_entity[t]);
    gold_entities.push_back(ds.gold_object_entity[t]);
  }
  ClusteringScore score = EvaluateClustering(result.np_cluster, gold_np);
  std::printf(
      "\nNP canonicalization: macro %.3f  micro %.3f  pairwise %.3f  "
      "average %.3f\n",
      score.macro.f1, score.micro.f1, score.pairwise.f1, score.average_f1);
  std::printf("entity linking accuracy: %.3f\n",
              LinkingAccuracy(result.np_link, gold_entities));
  std::printf("LBP sweeps: %zu (converged: %s, certificate: max residual "
              "%.2e at stop)\n",
              result.diagnostics.iterations,
              result.diagnostics.converged ? "yes" : "no",
              result.diagnostics.final_residual);
  std::printf("\nmost-adjusted weights:\n%s",
              FormatWeightReport(weights).c_str());
  publish_span.reset();
  return WriteTrace(&trace, recorder, trace_path);
}

int RunWeights(int argc, char** argv) {
  std::string trace_path;
  argc = ParseTraceFlag(argc, argv, &trace_path);
  if (argc < 3 || HasUnknownFlag(argc, argv)) return Usage();
  TraceRecorder recorder;
  std::optional<ScopedTraceSession> trace;
  if (!trace_path.empty()) trace.emplace(&recorder);
  double scale = argc > 3 ? std::atof(argv[3]) : 0.5;
  Dataset ds = GenerateReVerb45K(scale).MoveValueOrDie();
  SignalBundle sig = BuildSignals(ds).MoveValueOrDie();
  Jocl jocl;
  std::vector<double> weights = jocl.LearnWeights(ds, sig).MoveValueOrDie();
  {
    ScopedSpan publish_span("publish");
    Status st = SaveWeights(weights, argv[2]);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("saved %zu weights to %s\n", weights.size(), argv[2]);
  return WriteTrace(&trace, recorder, trace_path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "generate") == 0) return RunGenerate(argc, argv);
  if (std::strcmp(argv[1], "demo") == 0) return RunDemo(argc, argv);
  if (std::strcmp(argv[1], "weights") == 0) return RunWeights(argc, argv);
  return Usage();
}

// Google-benchmark microbenchmarks for the performance-critical kernels:
// string similarities, CKB candidate generation, one-shot problem
// construction, IDF scoring, HAC, SGNS training, LBP sweeps, joint
// graph construction, the global decode, a steady-state session refresh
// and store publication.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster/hac.h"
#include "core/decode.h"
#include "core/graph_builder.h"
#include "core/jocl.h"
#include "core/problem.h"
#include "core/runtime.h"
#include "core/session.h"
#include "core/shard.h"
#include "core/signal_cache.h"
#include "core/signals.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "embedding/word2vec.h"
#include "graph/flat_lbp.h"
#include "serve/canon_store.h"
#include "serve/response_cache.h"
#include "support/decode_reference.h"
#include "support/tail_batch.h"
#include "text/porter_stemmer.h"
#include "text/similarity.h"
#include "util/rng.h"

namespace jocl {
namespace {

std::vector<std::string> MakePhrases(size_t n) {
  Rng rng(7);
  std::vector<std::string> phrases;
  static const char* kWords[] = {"university", "maryland", "institute",
                                 "warren",     "buffett",  "company",
                                 "kandor",     "merith",   "salvor"};
  for (size_t i = 0; i < n; ++i) {
    std::string p;
    size_t words = 1 + rng.UniformUint64(3);
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) p += ' ';
      p += kWords[rng.UniformUint64(std::size(kWords))];
    }
    phrases.push_back(std::move(p));
  }
  return phrases;
}

void BM_Levenshtein(benchmark::State& state) {
  auto phrases = MakePhrases(64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LevenshteinSimilarity(phrases[i % 64], phrases[(i + 7) % 64]));
    ++i;
  }
}
BENCHMARK(BM_Levenshtein);

void BM_JaroWinkler(benchmark::State& state) {
  auto phrases = MakePhrases(64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JaroWinklerSimilarity(phrases[i % 64], phrases[(i + 7) % 64]));
    ++i;
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_NgramSimilarity(benchmark::State& state) {
  auto phrases = MakePhrases(64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        NgramSimilarity(phrases[i % 64], phrases[(i + 7) % 64]));
    ++i;
  }
}
BENCHMARK(BM_NgramSimilarity);

// Candidate generation over the generated CKB (the ReVerb45K-like corpus
// at scale 0.35, seed 7): one call per iteration, cycling through every
// distinct predicate (or noun) phrase of the OKB with the problem
// builder's default cap of 5 candidates.
const Dataset& CandidateCorpus() {
  static const Dataset* const kDataset =
      new Dataset(GenerateReVerb45K(0.35, 7).MoveValueOrDie());
  return *kDataset;
}

void BM_RelationCandidates(benchmark::State& state) {
  const Dataset& ds = CandidateCorpus();
  const std::vector<std::string> phrases = ds.okb.DistinctRelationPhrases();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ds.ckb.RelationCandidates(phrases[i % phrases.size()], 5));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RelationCandidates);

void BM_EntityCandidates(benchmark::State& state) {
  const Dataset& ds = CandidateCorpus();
  const std::vector<std::string> phrases = ds.okb.DistinctNounPhrases();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ds.ckb.EntityCandidates(phrases[i % phrases.size()], 5));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntityCandidates);

// One-shot problem construction (BuildProblem: one ProblemBuilder batch)
// over the test split of the same corpus with default signals and
// options — surface dedup, candidate generation and pair blocking, the
// front end of JoclRuntime::Infer and of the learner's labeled problem.
const SignalBundle& CandidateSignals() {
  static const SignalBundle* const kSignals =
      new SignalBundle(BuildSignals(CandidateCorpus()).MoveValueOrDie());
  return *kSignals;
}

void BM_BuildProblem(benchmark::State& state) {
  const Dataset& ds = CandidateCorpus();
  const SignalBundle& signals = CandidateSignals();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildProblem(ds, signals, ds.test_triples));
  }
  state.SetItemsProcessed(state.iterations() * ds.test_triples.size());
}
BENCHMARK(BM_BuildProblem)->Unit(benchmark::kMillisecond);

void BM_BuildJoclGraph(benchmark::State& state) {
  // Graph build + inference-engine setup of the largest shard of the test
  // split: everything the runtime does to a shard before LBP runs.
  const Dataset& ds = CandidateCorpus();
  const SignalBundle& signals = CandidateSignals();
  const JoclProblem problem = BuildProblem(ds, signals, ds.test_triples);
  const SignalCache cache = SignalCache::ForProblem(problem, signals, ds.ckb);
  ShardPlan plan = PartitionProblem(problem, /*max_shards=*/0);
  const ProblemShard& shard = *std::max_element(
      plan.shards.begin(), plan.shards.end(),
      [](const ProblemShard& a, const ProblemShard& b) {
        return a.problem.triples.size() < b.problem.triples.size();
      });
  const JoclOptions options;
  const std::vector<double> weights = Jocl::DefaultWeights();
  for (auto _ : state) {
    JoclGraph jgraph =
        BuildJoclGraph(shard.problem, cache, ds.ckb, options.builder);
    LbpOptions lbp = options.inference;
    lbp.factor_schedule = jgraph.schedule;
    benchmark::DoNotOptimize(
        std::make_unique<FlatLbpEngine>(&jgraph.graph, &weights, lbp));
  }
  state.SetItemsProcessed(state.iterations() * shard.problem.triples.size());
}
BENCHMARK(BM_BuildJoclGraph)->Unit(benchmark::kMillisecond);

void BM_IdfSimilarity(benchmark::State& state) {
  auto phrases = MakePhrases(256);
  IdfTable idf;
  idf.AddPhrases(phrases);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        idf.Similarity(phrases[i % 256], phrases[(i + 13) % 256]));
    ++i;
  }
}
BENCHMARK(BM_IdfSimilarity);

void BM_PorterStem(benchmark::State& state) {
  static const char* kWords[] = {"relational", "canonicalization",
                                 "organizations", "founded", "membership"};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PorterStem(kWords[i % 5]));
    ++i;
  }
}
BENCHMARK(BM_PorterStem);

void BM_Hac(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> matrix(n * n);
  for (size_t i = 0; i < n; ++i) {
    matrix[i * n + i] = 1.0;
    for (size_t j = i + 1; j < n; ++j) {
      double s = rng.UniformDouble();
      matrix[i * n + j] = s;
      matrix[j * n + i] = s;
    }
  }
  HacOptions options;
  options.threshold = 0.7;
  options.linkage = Linkage::kAverage;
  Hac hac(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hac.ClusterMatrix(n, matrix));
  }
}
BENCHMARK(BM_Hac)->Arg(64)->Arg(256)->Arg(512);

void BM_Word2VecEpoch(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::vector<std::string>> corpus;
  auto vocab = MakePhrases(128);
  for (int s = 0; s < 500; ++s) {
    std::vector<std::string> sentence;
    for (int w = 0; w < 8; ++w) {
      sentence.push_back(vocab[rng.UniformUint64(vocab.size())]);
    }
    corpus.push_back(std::move(sentence));
  }
  Word2VecOptions options;
  options.dim = 32;
  options.epochs = 1;
  for (auto _ : state) {
    Word2Vec trainer(options);
    benchmark::DoNotOptimize(trainer.Train(corpus));
  }
}
BENCHMARK(BM_Word2VecEpoch);

// A grid-ish loopy graph with binary variables (one connected component).
FactorGraph MakeGrid(size_t side) {
  FactorGraph g;
  g.set_weight_count(1);
  std::vector<VariableId> vars;
  for (size_t i = 0; i < side * side; ++i) vars.push_back(g.AddVariable(2));
  auto table = [] {
    return FeatureTable::Uniform(0, {0.7, 0.3, 0.3, 0.7});
  };
  for (size_t r = 0; r < side; ++r) {
    for (size_t c = 0; c < side; ++c) {
      if (c + 1 < side) {
        (void)g.AddFactor({vars[r * side + c], vars[r * side + c + 1]},
                          table());
      }
      if (r + 1 < side) {
        (void)g.AddFactor({vars[r * side + c], vars[(r + 1) * side + c]},
                          table());
      }
    }
  }
  return g;
}

void BM_LbpSweep(benchmark::State& state) {
  FactorGraph g = MakeGrid(static_cast<size_t>(state.range(0)));
  std::vector<double> weights = {1.0};
  for (auto _ : state) {
    LbpOptions options;
    options.max_iterations = 1;  // a single sweep (includes engine setup)
    FlatLbpEngine engine(&g, &weights, options);
    benchmark::DoNotOptimize(engine.Run());
  }
}
BENCHMARK(BM_LbpSweep)->Arg(10)->Arg(20)->Arg(40);

void BM_LbpSweepBoundEngine(benchmark::State& state) {
  // The pure sweep cost of one engine run many times (the learner's
  // steady state: bind once, run every pass).
  FactorGraph g = MakeGrid(static_cast<size_t>(state.range(0)));
  std::vector<double> weights = {1.0};
  LbpOptions options;
  options.max_iterations = 1;
  FlatLbpEngine engine(&g, &weights, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run());
  }
}
BENCHMARK(BM_LbpSweepBoundEngine)->Arg(10)->Arg(20)->Arg(40);

// The head-component worst case in miniature: a backbone chain with
// skewed hub cross-links, unary evidence and ternary ties, cards 2..8
// (one giant loopy component — the shape that dominates joint graphs).
FactorGraph MakeHeadHeavy(size_t head_vars) {
  Rng rng(11);
  FactorGraph g;
  g.set_weight_count(1);
  auto random_table = [&](size_t states) {
    std::vector<double> table(states);
    for (double& v : table) v = rng.UniformDouble(-1.5, 1.5);
    return FeatureTable::Uniform(0, std::move(table));
  };
  std::vector<VariableId> head;
  for (size_t i = 0; i < head_vars; ++i) {
    head.push_back(g.AddVariable(2 + i % 7));
  }
  auto card = [&](VariableId v) { return g.cardinality(v); };
  for (size_t i = 1; i < head.size(); ++i) {
    (void)g.AddFactor({head[i - 1], head[i]},
                      random_table(card(head[i - 1]) * card(head[i])));
  }
  for (size_t i = 1; i < head.size(); ++i) {
    const size_t hub = static_cast<size_t>(
        rng.UniformUint64(std::max<size_t>(1, i / 4)));
    const VariableId other = head[hub == i ? i - 1 : i];
    (void)g.AddFactor({head[hub], other},
                      random_table(card(head[hub]) * card(other)));
  }
  for (size_t i = 0; i < head.size(); i += 3) {
    (void)g.AddFactor({head[i]}, random_table(card(head[i])));
  }
  for (size_t i = 5; i + 2 < head.size(); i += 5) {
    (void)g.AddFactor({head[i], head[i + 1], head[i + 2]},
                      random_table(card(head[i]) * card(head[i + 1]) *
                                   card(head[i + 2])));
  }
  return g;
}

void BM_LbpKernelHeadHeavy(benchmark::State& state) {
  // Arg0: head variables; Arg1: 0 = vectorized kernel, 1 = scalar
  // reference. Both produce byte-identical marginals; the ratio of these
  // two rows is the kernel speedup bench_kernel guards.
  FactorGraph g = MakeHeadHeavy(static_cast<size_t>(state.range(0)));
  std::vector<double> weights = {1.0};
  for (auto _ : state) {
    LbpOptions options;
    options.max_iterations = 5;
    options.kernel = state.range(1) == 0 ? LbpKernel::kVectorized
                                         : LbpKernel::kScalarReference;
    FlatLbpEngine engine(&g, &weights, options);
    benchmark::DoNotOptimize(engine.Run());
  }
}
BENCHMARK(BM_LbpKernelHeadHeavy)
    ->Args({200, 0})
    ->Args({200, 1})
    ->Args({800, 0})
    ->Args({800, 1});

void BM_LbpResidualHeadHeavy(benchmark::State& state) {
  // Arg: head variables. The residual schedule runs to its convergence
  // certificate within a 30-sweep budget.
  FactorGraph g = MakeHeadHeavy(static_cast<size_t>(state.range(0)));
  std::vector<double> weights = {1.0};
  for (auto _ : state) {
    LbpOptions options;
    options.max_iterations = 30;
    FlatLbpEngine engine(&g, &weights, options);
    benchmark::DoNotOptimize(engine.Run());
  }
}
BENCHMARK(BM_LbpResidualHeadHeavy)->Arg(200)->Arg(800);

void BM_LbpComponentParallel(benchmark::State& state) {
  // Fragmented workload (many disjoint grids — the shape of JOCL's joint
  // graphs) across a worker pool; Arg is the thread count.
  FactorGraph g;
  g.set_weight_count(1);
  auto table = [] {
    return FeatureTable::Uniform(0, {0.7, 0.3, 0.3, 0.7});
  };
  constexpr size_t kChains = 64;
  constexpr size_t kLen = 40;
  for (size_t chain = 0; chain < kChains; ++chain) {
    VariableId prev = g.AddVariable(2);
    for (size_t i = 1; i < kLen; ++i) {
      VariableId v = g.AddVariable(2);
      (void)g.AddFactor({prev, v}, table());
      prev = v;
    }
  }
  std::vector<double> weights = {1.0};
  for (auto _ : state) {
    LbpOptions options;
    options.max_iterations = 10;
    options.num_threads = static_cast<size_t>(state.range(0));
    FlatLbpEngine engine(&g, &weights, options);
    benchmark::DoNotOptimize(engine.Run());
  }
}
BENCHMARK(BM_LbpComponentParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_GenerateDataset(benchmark::State& state) {
  for (auto _ : state) {
    GeneratorOptions options;
    options.num_entities = 100;
    options.num_relations = 12;
    options.num_triples = 500;
    benchmark::DoNotOptimize(GenerateDataset(options, "bench"));
  }
}
BENCHMARK(BM_GenerateDataset);

// Publication of one session generation: the test split of the
// scale-0.35 corpus ingested into a JoclSession, then the serving index
// (BuildCanonStore) and the pre-rendered responses CanonServer::Publish
// swaps in with it (BuildResponseCache).
const JoclSession& IngestedSession() {
  static const JoclSession* const kSession = [] {
    const Dataset& ds = CandidateCorpus();
    auto* session = new JoclSession(&ds, &CandidateSignals());
    if (!session->AddTriples(ds.test_triples).ok()) std::abort();
    return session;
  }();
  return *kSession;
}

void BM_BuildCanonStore(benchmark::State& state) {
  const Dataset& ds = CandidateCorpus();
  const JoclSession& session = IngestedSession();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildCanonStore(
        session.problem(), session.result(), ds.ckb, session.generation()));
  }
  state.SetItemsProcessed(state.iterations() * ds.test_triples.size());
}
BENCHMARK(BM_BuildCanonStore)->Unit(benchmark::kMicrosecond);

void BM_BuildResponseCache(benchmark::State& state) {
  const JoclSession& session = IngestedSession();
  const CanonStore store =
      BuildCanonStore(session.problem(), session.result(),
                      CandidateCorpus().ckb, session.generation());
  size_t bytes = 0;
  for (auto _ : state) {
    const ResponseCache cache = BuildResponseCache(store);
    bytes = cache.arena_bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_BuildResponseCache)->Unit(benchmark::kMicrosecond);

// The global decode of the same session generation: clustering with
// merge vetoes, argmax links and label materialization over the whole
// problem, fed the beliefs the result was decoded from.
void BM_DecodeJointResult(benchmark::State& state) {
  const JoclSession& session = IngestedSession();
  const JoclBeliefs beliefs = BeliefsOfResult(
      session.problem(), session.result(), session.options());
  for (auto _ : state) {
    JoclResult result;
    DecodeJointResult(session.problem(), beliefs, session.options().builder,
                      &result);
    benchmark::DoNotOptimize(result.np_cluster.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          session.problem().triples.size());
}
BENCHMARK(BM_DecodeJointResult)->Unit(benchmark::kMicrosecond);

// One steady-state tail write cycle: a 9-triple tail batch added to and
// retracted from its own scale-0.35 session (the test split minus the
// batch), on one thread — problem build, partition, the dirty shards'
// inference and the global decode, twice.
void BM_SessionTailCycle(benchmark::State& state) {
  const Dataset& ds = CandidateCorpus();
  const SignalBundle& signals = CandidateSignals();
  const std::vector<size_t> tail =
      ChooseTailBatch(ds, signals, ds.test_triples, 9);
  std::vector<size_t> prefill;
  std::set_difference(ds.test_triples.begin(), ds.test_triples.end(),
                      tail.begin(), tail.end(), std::back_inserter(prefill));
  SessionOptions session_options;
  session_options.num_threads = 1;
  session_options.frontend_threads = 1;
  JoclSession session(&ds, &signals, {}, session_options);
  if (!session.AddTriples(prefill).ok()) std::abort();
  for (auto _ : state) {
    if (!session.AddTriples(tail).ok()) std::abort();
    if (!session.RemoveTriples(tail).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SessionTailCycle)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace jocl

BENCHMARK_MAIN();

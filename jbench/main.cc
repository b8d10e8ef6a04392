// jbench — the JOCL end-to-end benchmark.
//
//   jbench --workload offline|ingest|serve [--seed N] [--seconds S]
//          [--trace 0|1] [--trace-out PATH]
//
// A run sets the system up (generate, signals, LearnWeights, session
// prefill) and then runs ticks of an interleaved schedule until --seconds
// have passed and every quantile has its sample floor. A tick runs a slice
// of each of three phases over the same set-up:
//
//   offline  JoclRuntime::Infer over the test split (jocl_run's batch
//            job): throughput and answer quality.
//   ingest   one writer applying a seeded interleaving of tail and head
//            add/retract batches to a JoclSession, publishing each through
//            BuildCanonStore + CanonServer::Publish and polling /lookup
//            until the new generation is visible: write->visible latency
//            per op class.
//   serve    pipelined windows of /lookup requests over one keep-alive
//            connection while an open-loop writer publishes tail batches
//            on a fixed cadence: read-window time and visibility under
//            reads.
//
// The workload sets the mix of a tick (kRecipes), so every run reports
// every end-to-end metric. With --trace 1 the same run records the
// benchmark's own spans around calls into each layer and reports per-layer
// metrics instead; the spans are written to --trace-out at exit.
//
// The last line of stdout is the JSON result (see harness.h RenderResult).
#include <sys/resource.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/decode.h"
#include "core/graph_builder.h"
#include "core/jocl.h"
#include "core/problem.h"
#include "core/runtime.h"
#include "core/session.h"
#include "core/shard.h"
#include "core/signal_cache.h"
#include "core/signals.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "eval/linking_metrics.h"
#include "graph/inference.h"
#include "harness.h"
#include "serve/canon_store.h"
#include "serve/http_client.h"
#include "serve/response_cache.h"
#include "serve/server.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace jocl;
using jbench::Metric;
using jbench::NowSeconds;
using jbench::OpKind;
using jbench::ScopedSpan;
using jbench::SpanRecorder;

namespace {

// ---- fixed benchmark configuration -------------------------------------
// The corpus is fixed so that figures from different --seed values are
// comparable; the seed drives everything the workloads choose.
constexpr double kScale = 0.35;
constexpr uint64_t kDataSeed = 7;
// Every timed path runs serially on one thread, timed on that thread's
// CPU clock (see jbench::ThreadCpuSeconds); the server's one event thread
// is timed on its own CPU clock where a request crosses it. The process
// runs on one CPU (PinToOneCpu).
constexpr size_t kThreads = 1;
constexpr size_t kSetupReps = 3;       // setup_s is their median
constexpr size_t kSetupEvery = 6;      // ticks between timed set-ups
// Ingest pools. A batch holds 1% of the test split, the size of
// bench_incremental's long-tail and head batches. The tail pool takes one
// triple per small non-head component; ingest and the serve writer get
// disjoint tail batches. A round adds and retracts kTailPerRound tail
// batches and one head batch; the 20 rounds the head p50 needs give 200
// tail adds, 20 beyond their p90.
constexpr size_t kBatchDivisor = 100;
constexpr size_t kIngestTailBatches = 20;
constexpr size_t kServeTailBatches = 10;
constexpr size_t kHeadBatches = 2;
constexpr size_t kMaxTailComponent = 8;
constexpr size_t kTailPerRound = 10;
// Serve: pipelined window depth, request-mix size, writer cadence (see
// README.md, "Why each workload exists", for where the figures come from).
constexpr size_t kWindow = 32;
constexpr size_t kMixSize = 4096;
constexpr double kWriterPeriodS = 0.040;
constexpr double kPollTimeoutS = 5.0;
constexpr size_t kOfflineMinReps = 5;
constexpr double kMaxMeasureS = 120.0;  // hard cap on the schedule

/// One tick of the interleaved schedule: an offline rep every
/// `offline_every` ticks, `ingest_rounds` ingest rounds and a serve burst.
/// Every tick runs ingest, whose 20-round floor sets the minimum tick
/// count; the named workload gets the larger share of each tick.
struct Recipe {
  size_t offline_every;
  size_t ingest_rounds;
  double serve_burst_s;
};
constexpr Recipe kRecipes[] = {
    {1, 1, 0.2},  // offline
    {2, 2, 0.2},  // ingest
    {4, 1, 0.4},  // serve
};

const char* const kPhaseNames[] = {"offline", "ingest", "serve"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Counts shared by all phases of one run.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t misclassified = 0;
  std::vector<std::string> errors;
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

double Median(const std::vector<double>& v) { return jbench::Quantile(v, 0.5); }

bool SameResult(const JoclResult& a, const JoclResult& b) {
  return a.np_cluster == b.np_cluster && a.rp_cluster == b.rp_cluster &&
         a.np_link == b.np_link && a.rp_link == b.rp_link &&
         a.triples == b.triples &&
         a.diagnostics.marginals == b.diagnostics.marginals;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---- setup -------------------------------------------------------------

/// One set-up: the corpus, its signals, learned weights, the seeded
/// held-out pools and a session prefilled with the rest of the test split.
/// Not movable: the session points into ds and sig.
struct World {
  JoclOptions options;
  Dataset ds;
  SignalBundle sig;
  std::vector<double> weights;
  jbench::Pools pools;
  size_t batch = 0;           // triples per ingest and writer batch
  size_t head_triples = 0;    // largest component of the full test split
  size_t head_variables = 0;  // its graph's variable count
  size_t tail_eligible = 0;   // test triples eligible for the tail pool
  std::vector<size_t> prefill;
  std::unique_ptr<JoclSession> session;
};

JoclOptions BenchOptions() {
  JoclOptions options;
  options.runtime_threads = kThreads;
  options.learner.lbp.num_threads = kThreads;
  options.inference.num_threads = kThreads;
  return options;
}

/// Restricts the calling thread, and every thread it starts later, to the
/// first CPU it may run on.
bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

/// Linux thread ids of this process.
std::vector<int> ThreadIds() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') tids.push_back(std::atoi(entry->d_name));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::unique_ptr<World> SetUp(uint64_t seed, SpanRecorder* rec, int parent) {
  auto w = std::make_unique<World>();
  w->options = BenchOptions();
  {
    ScopedSpan span(rec, "data.generate", parent);
    w->ds = GenerateReVerb45K(kScale, kDataSeed).MoveValueOrDie();
  }
  {
    ScopedSpan span(rec, "core.signals.build", parent);
    w->sig = BuildSignals(w->ds).MoveValueOrDie();
  }
  {
    ScopedSpan span(rec, "core.sharded_learner.learn", parent);
    w->weights = Jocl(w->options).LearnWeights(w->ds, w->sig).MoveValueOrDie();
  }
  w->batch = std::max<size_t>(1, w->ds.test_triples.size() / kBatchDivisor);
  const size_t tail_pool =
      (kIngestTailBatches + kServeTailBatches) * w->batch;
  const size_t head_pool = kHeadBatches * w->batch;
  {
    // Pools come from the partition of the full test split.
    ScopedSpan span(rec, "jbench.pools", parent);
    JoclProblem full = BuildProblem(w->ds, w->sig, w->ds.test_triples,
                                    w->options.problem);
    std::vector<size_t> component_of, weight;
    ComputeProblemComponents(full, &component_of, &weight);
    const size_t largest = static_cast<size_t>(
        std::max_element(weight.begin(), weight.end()) - weight.begin());
    w->head_triples = weight[largest];
    // A tail triple must bring no new surface and must not be the first
    // mention (the representative) of any of its surfaces, so adding it
    // changes no other component; nor may a representative of its surfaces
    // be held out in the head pool. The head pool is drawn first and does
    // not depend on tail eligibility.
    std::vector<bool> tail_eligible(full.triples.size());
    for (size_t i = 0; i < full.triples.size(); ++i) {
      tail_eligible[i] = full.subject_rep[full.subject_of[i]] != i &&
                         full.predicate_rep[full.predicate_of[i]] != i &&
                         full.object_rep[full.object_of[i]] != i;
    }
    const jbench::Pools first = jbench::ChoosePools(
        full.triples, component_of, largest, tail_eligible, 0, head_pool,
        kMaxTailComponent, seed);
    for (size_t i = 0; i < full.triples.size(); ++i) {
      for (size_t rep : {full.subject_rep[full.subject_of[i]],
                         full.predicate_rep[full.predicate_of[i]],
                         full.object_rep[full.object_of[i]]}) {
        if (std::binary_search(first.head.begin(), first.head.end(),
                               full.triples[rep])) {
          tail_eligible[i] = false;
        }
      }
    }
    w->tail_eligible = static_cast<size_t>(
        std::count(tail_eligible.begin(), tail_eligible.end(), true));
    w->pools = jbench::ChoosePools(full.triples, component_of, largest,
                                   tail_eligible, tail_pool, head_pool,
                                   kMaxTailComponent, seed);
    ShardPlan plan = PartitionProblem(full, 0);
    const ProblemShard* head = &plan.shards[0];
    for (const ProblemShard& shard : plan.shards) {
      if (shard.triple_map.size() > head->triple_map.size()) head = &shard;
    }
    SignalCache cache = SignalCache::ForProblem(full, w->sig, w->ds.ckb);
    w->head_variables =
        BuildJoclGraph(head->problem, cache, w->ds.ckb, w->options.builder)
            .graph.variable_count();
  }
  if (w->pools.tail.size() < tail_pool || w->pools.head.size() < head_pool) {
    std::fprintf(stderr,
                 "jbench: corpus too small for the held-out pools (%zu tail "
                 "of %zu eligible, %zu head)\n",
                 w->pools.tail.size(), w->tail_eligible, w->pools.head.size());
    std::exit(1);
  }
  std::vector<size_t> held = w->pools.tail;
  held.insert(held.end(), w->pools.head.begin(), w->pools.head.end());
  std::sort(held.begin(), held.end());
  for (size_t t : w->ds.test_triples) {
    if (!std::binary_search(held.begin(), held.end(), t)) {
      w->prefill.push_back(t);
    }
  }
  {
    ScopedSpan span(rec, "core.session.prefill", parent);
    SessionOptions session_options;
    session_options.num_threads = kThreads;
    session_options.frontend_threads = kThreads;
    w->session = std::make_unique<JoclSession>(&w->ds, &w->sig, w->options,
                                               session_options, w->weights);
    Status status = w->session->AddTriples(w->prefill);
    if (!status.ok()) {
      std::fprintf(stderr, "prefill failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  return w;
}

// ---- pipelined HTTP client ---------------------------------------------

struct Reply {
  int status = 0;
  int64_t generation = -1;
  std::string body;
};

/// A keep-alive connection that writes a whole window of GETs at once and
/// then reads the window's responses (Content-Length framing).
class PipeClient {
 public:
  ~PipeClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  PipeClient() = default;
  PipeClient(const PipeClient&) = delete;
  PipeClient& operator=(const PipeClient&) = delete;

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{5, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  /// Sends every target as one pipelined write and reads as many
  /// responses; false on any socket or framing error.
  bool Window(const std::vector<const std::string*>& targets,
              std::vector<Reply>* replies) {
    out_.clear();
    for (const std::string* target : targets) {
      out_ += "GET ";
      out_ += *target;
      out_ += " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    }
    size_t sent = 0;
    while (sent < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + sent, out_.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    replies->resize(targets.size());
    for (Reply& reply : *replies) {
      if (!ReadOne(&reply)) return false;
    }
    return true;
  }

 private:
  bool Fill() {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      in_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  static int64_t HeaderNumber(std::string_view head, std::string_view key) {
    // Case-insensitive search for "\r\n<key>:".
    for (size_t at = head.find("\r\n"); at != std::string_view::npos;
         at = head.find("\r\n", at + 2)) {
      std::string_view line = head.substr(at + 2);
      if (line.size() <= key.size() || line[key.size()] != ':') continue;
      bool match = true;
      for (size_t i = 0; i < key.size() && match; ++i) {
        match = std::tolower(static_cast<unsigned char>(line[i])) == key[i];
      }
      if (!match) continue;
      return std::strtoll(line.data() + key.size() + 1, nullptr, 10);
    }
    return -1;
  }

  bool ReadOne(Reply* reply) {
    size_t head_end;
    while ((head_end = in_.find("\r\n\r\n", pos_)) == std::string::npos) {
      if (!Fill()) return false;
    }
    std::string_view head(in_.data() + pos_, head_end - pos_);
    if (head.size() < 12 || head.substr(0, 5) != "HTTP/") return false;
    reply->status = std::atoi(std::string(head.substr(9, 3)).c_str());
    const int64_t length = HeaderNumber(head, "content-length");
    if (length < 0) return false;
    reply->generation = HeaderNumber(head, "x-jocl-generation");
    const size_t body_start = head_end + 4;
    while (in_.size() < body_start + static_cast<size_t>(length)) {
      if (!Fill()) return false;
    }
    reply->body.assign(in_, body_start, static_cast<size_t>(length));
    pos_ = body_start + static_cast<size_t>(length);
    if (pos_ == in_.size()) {
      in_.clear();
      pos_ = 0;
    }
    return true;
  }

  int fd_ = -1;
  std::string out_;
  std::string in_;
  size_t pos_ = 0;
};

/// Checks one served response: 200, valid JSON, generation not below the
/// connection's previous one.
bool CheckReply(const Reply& reply, int64_t* last_generation) {
  if (reply.status != 200 || reply.generation < *last_generation ||
      !jbench::IsValidJson(reply.body)) {
    return false;
  }
  *last_generation = reply.generation;
  return true;
}

std::shared_ptr<const CanonStore> MakeStore(const World& w,
                                            SpanRecorder* rec, int parent) {
  ScopedSpan span(rec, "serve.canon_store.build", parent);
  return std::make_shared<const CanonStore>(
      BuildCanonStore(w.session->problem(), w.session->result(), w.ds.ckb,
                      w.session->generation()));
}

/// One lookup of the serve mix: the surface of one mention and its kind.
struct Lookup {
  CanonKind kind;
  std::string surface;
};

/// Seeded lookups: mentions drawn uniformly from the triples of \p problem,
/// which hold 2 NP mentions and 1 RP mention each. So a surface is looked
/// up as often as it occurs in the corpus.
std::vector<Lookup> RequestMix(const JoclProblem& problem, uint64_t seed) {
  Rng rng(seed);
  std::vector<Lookup> mix;
  mix.reserve(kMixSize);
  for (size_t i = 0; i < kMixSize; ++i) {
    const uint64_t mention = rng.UniformUint64(3 * problem.triples.size());
    const size_t t = static_cast<size_t>(mention / 3);
    switch (mention % 3) {
      case 0:
        mix.push_back({CanonKind::kNp,
                       problem.subject_surfaces[problem.subject_of[t]]});
        break;
      case 1:
        mix.push_back({CanonKind::kRp,
                       problem.predicate_surfaces[problem.predicate_of[t]]});
        break;
      default:
        mix.push_back({CanonKind::kNp,
                       problem.object_surfaces[problem.object_of[t]]});
    }
  }
  return mix;
}

std::string LookupTarget(const Lookup& lookup) {
  return "/lookup?surface=" + UrlEncode(lookup.surface) +
         (lookup.kind == CanonKind::kRp ? "&kind=rp" : "&kind=np");
}

/// True when the event thread's CPU clock, read by thread id, works and
/// advances while that thread serves one window of requests.
bool EventClockAdvances(int port, int event_tid, const std::string& target) {
  const double before = jbench::ThreadCpuSeconds(event_tid);
  PipeClient client;
  std::vector<Reply> replies;
  const std::vector<const std::string*> window(kWindow, &target);
  if (before < 0 || !client.Connect(port) || !client.Window(window, &replies)) {
    return false;
  }
  return jbench::ThreadCpuSeconds(event_tid) > before;
}


// ---- offline -----------------------------------------------------------

/// Shape counts of one stage-by-stage run.
struct StageCounts {
  size_t components = 0, variables = 0, factors = 0, message_updates = 0,
         unconverged_shards = 0;
};

/// JoclRuntime::Infer taken apart into its public stages, each call
/// wrapped in a span: the traced run's stage-by-stage assembly. It must
/// reproduce Infer's result byte for byte. With \p head_reps > 0 the
/// largest shard is then built and run alone that many times, outside the
/// "offline.infer" span.
JoclResult InferByStages(const World& w, SpanRecorder* rec, int parent,
                         size_t head_reps, StageCounts* counts) {
  const JoclOptions& options = w.options;
  std::optional<ScopedSpan> root(std::in_place, rec, "offline.infer", parent);
  const int p = root->id();
  std::optional<ScopedSpan> span;
  span.emplace(rec, "core.problem.build", p);
  JoclProblem problem = BuildProblem(w.ds, w.sig, w.ds.test_triples,
                                     options.problem);
  span.emplace(rec, "core.signal_cache.build", p);
  SignalCache cache = SignalCache::ForProblem(problem, w.sig, w.ds.ckb);
  span.emplace(rec, "core.shard.partition", p);
  ShardPlan plan = PartitionProblem(problem, 0);
  span.emplace(rec, "core.shard.run", p);
  const int run_id = span->id();
  JoclBeliefs beliefs;
  SizeJoclBeliefs(problem, options.builder, &beliefs);
  std::vector<ShardBeliefs> outcomes(plan.shards.size());
  auto build = [&](const JoclProblem& local) {
    return BuildJoclGraph(local, cache, w.ds.ckb, options.builder);
  };
  auto engine_for = [&](JoclGraph* jgraph) {
    LbpOptions lbp = options.inference;
    lbp.factor_schedule = jgraph->schedule;
    lbp.num_threads = kThreads;
    return CreateInferenceEngine(options.inference_backend, &jgraph->graph,
                                 &w.weights, lbp);
  };
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    const ProblemShard& shard = plan.shards[s];
    std::optional<ScopedSpan> stage;
    stage.emplace(rec, "core.graph_builder.build", run_id);
    JoclGraph jgraph = build(shard.problem);
    stage.emplace(rec, "graph.compile", run_id);
    std::unique_ptr<InferenceEngine> engine = engine_for(&jgraph);
    stage.emplace(rec, "graph.flat_lbp.run", run_id);
    ShardBeliefs& out = outcomes[s];
    out.diagnostics = engine->Run();
    out.diagnostics.marginals.clear();
    out.variables = jgraph.graph.variable_count();
    out.factors = jgraph.graph.factor_count();
    stage.emplace(rec, "core.shard.extract", run_id);
    const std::vector<size_t> decoded = engine->Decode();
    auto extract = [&](const std::vector<VariableId>& vars,
                       std::vector<std::vector<double>>* marg,
                       std::vector<size_t>* state) {
      marg->resize(vars.size());
      state->resize(vars.size());
      for (size_t i = 0; i < vars.size(); ++i) {
        (*marg)[i] = engine->Marginal(vars[i]);
        (*state)[i] = decoded[vars[i]];
      }
    };
    if (options.builder.enable_canonicalization) {
      extract(jgraph.x_vars, &out.x_marg, &out.x_state);
      extract(jgraph.y_vars, &out.y_marg, &out.y_state);
      extract(jgraph.z_vars, &out.z_marg, &out.z_state);
    }
    if (options.builder.enable_linking) {
      extract(jgraph.es_vars, &out.es_marg, &out.es_state);
      extract(jgraph.rp_vars, &out.rp_marg, &out.rp_state);
      extract(jgraph.eo_vars, &out.eo_marg, &out.eo_state);
    }
    ScatterShardBeliefs(shard, out, options.builder, &beliefs);
  }
  span.emplace(rec, "core.decode.assemble", p);
  LbpResult diagnostics;
  diagnostics.converged = true;
  StageCounts local;
  local.components = plan.component_count;
  for (const ShardBeliefs& out : outcomes) {
    MergeShardDiagnostics(out.diagnostics, &diagnostics);
    local.variables += out.variables;
    local.factors += out.factors;
    local.message_updates += out.diagnostics.message_updates;
    local.unconverged_shards += out.diagnostics.converged ? 0 : 1;
  }
  JoclResult result = AssembleJoclResult(problem, beliefs, options, w.weights,
                                         std::move(diagnostics), kThreads);
  span.reset();
  root.reset();
  if (counts != nullptr) *counts = local;

  if (head_reps > 0 && !plan.shards.empty()) {
    size_t head = 0;
    for (size_t s = 1; s < plan.shards.size(); ++s) {
      if (plan.shards[s].triple_map.size() >
          plan.shards[head].triple_map.size()) {
        head = s;
      }
    }
    for (size_t r = 0; r < head_reps; ++r) {
      std::optional<ScopedSpan> stage;
      stage.emplace(rec, "core.graph_builder.head_build", parent);
      JoclGraph jgraph = build(plan.shards[head].problem);
      stage.reset();
      std::unique_ptr<InferenceEngine> engine = engine_for(&jgraph);
      stage.emplace(rec, "graph.flat_lbp.head_run", parent);
      engine->Run();
    }
  }
  return result;
}

/// The offline phase: JoclRuntime::Infer over the test split, one rep
/// per slice, each checked byte-identical to the warm-up run.
class OfflinePhase {
 public:
  OfflinePhase(const World& w, Ledger* ledger)
      : w_(w), ledger_(ledger), runtime_(w.options, RuntimeOptions{kThreads, 0}) {
    ++ledger_->attempted;
    Result<JoclResult> warm =
        runtime_.Infer(w_.ds, w_.sig, w_.ds.test_triples, w_.weights);
    if (!warm.ok()) {
      ledger_->Fail("offline warm-up: " + warm.status().ToString());
      return;
    }
    reference_ = warm.MoveValueOrDie();
    std::vector<size_t> gold_np, gold_rp;
    std::vector<int64_t> gold_entities;
    for (size_t t : reference_.triples) {
      gold_np.push_back(static_cast<size_t>(w_.ds.gold_np_group[t * 2]));
      gold_np.push_back(static_cast<size_t>(w_.ds.gold_np_group[t * 2 + 1]));
      gold_rp.push_back(static_cast<size_t>(w_.ds.gold_rp_group[t]));
      gold_entities.push_back(w_.ds.gold_subject_entity[t]);
      gold_entities.push_back(w_.ds.gold_object_entity[t]);
    }
    np_avg_f1 = EvaluateClustering(reference_.np_cluster, gold_np).average_f1;
    rp_avg_f1 = EvaluateClustering(reference_.rp_cluster, gold_rp).average_f1;
    entity_link_acc = LinkingAccuracy(reference_.np_link, gold_entities);
  }

  void Slice() {
    ++ledger_->attempted;
    const double t0 = jbench::ThreadCpuSeconds();
    Result<JoclResult> result =
        runtime_.Infer(w_.ds, w_.sig, w_.ds.test_triples, w_.weights);
    const double seconds = jbench::ThreadCpuSeconds() - t0;
    if (!result.ok() || !SameResult(result.ValueOrDie(), reference_)) {
      ledger_->Fail("offline rep differs from the warm-up run");
      return;
    }
    rep_seconds.push_back(seconds);
  }

  /// Traced run only: the stage-by-stage assembly, alternately without and
  /// with spans so the overhead ratio compares the same code; each must
  /// match Infer byte for byte.
  void TracedStages(SpanRecorder* rec) {
    constexpr size_t kStageReps = 3;
    for (size_t r = 0; r < kStageReps; ++r) {
      for (SpanRecorder* recorder : {static_cast<SpanRecorder*>(nullptr), rec}) {
        ++ledger_->attempted;
        const double t0 = jbench::ThreadCpuSeconds();
        JoclResult staged =
            InferByStages(w_, recorder, -1, recorder != nullptr && r == 0 ? 5 : 0,
                          recorder != nullptr ? &counts : nullptr);
        const double seconds = jbench::ThreadCpuSeconds() - t0;
        if (!SameResult(staged, reference_)) {
          ledger_->Fail("stage-by-stage assembly differs from Infer");
        }
        (recorder != nullptr ? traced_stage_seconds : untraced_stage_seconds)
            .push_back(seconds);
      }
    }
  }

  std::vector<double> rep_seconds;
  double np_avg_f1 = 0, rp_avg_f1 = 0, entity_link_acc = 0;
  StageCounts counts;
  std::vector<double> untraced_stage_seconds, traced_stage_seconds;

 private:
  const World& w_;
  Ledger* ledger_;
  JoclRuntime runtime_;
  JoclResult reference_;
};

// ---- ingest ------------------------------------------------------------

/// CPU seconds of the calling thread plus the server's event thread: the
/// steal-free time of work that crosses the HTTP hop.
double RequestCpu(int event_tid) {
  return jbench::ThreadCpuSeconds() + jbench::ThreadCpuSeconds(event_tid);
}

/// Polls /lookup on \p client until a response carries \p generation;
/// false on failure.
bool PollVisible(PipeClient* client, const std::string& target,
                 int64_t generation, int64_t* last_generation,
                 Ledger* ledger) {
  const std::vector<const std::string*> one = {&target};
  std::vector<Reply> replies;
  const double deadline = NowSeconds() + kPollTimeoutS;
  while (NowSeconds() < deadline) {
    ++ledger->attempted;
    if (!client->Window(one, &replies) ||
        !CheckReply(replies[0], last_generation)) {
      ledger->Fail("ingest poll: bad response");
      return false;
    }
    if (replies[0].generation >= generation) return true;
  }
  ledger->Fail("ingest poll: generation never became visible");
  return false;
}

/// The ingest phase: one writer, one round of the seeded op sequence per
/// slice; each op is published and polled until visible.
class IngestPhase {
 public:
  IngestPhase(World& w, CanonServer* server, int event_tid,
              std::vector<std::vector<size_t>> tail, uint64_t seed,
              SpanRecorder* rec, Ledger* ledger)
      : w_(w),
        server_(server),
        event_tid_(event_tid),
        rec_(rec),
        ledger_(ledger),
        tail_(std::move(tail)),
        head_(jbench::SplitBatches(w.pools.head, w.batch)) {
    ops_ = jbench::BuildOpSequence(tail_.size(), head_.size(), kMaxRounds,
                                   kTailPerRound, seed);
    std::shared_ptr<const CanonStore> store = server_->store();
    store_surfaces = store->np.surface_count() + store->rp.surface_count();
    target_ =
        "/lookup?surface=" + UrlEncode(store->SurfaceText(CanonKind::kNp, 0));
    if (!client_.Connect(server_->port())) {
      ledger_->Fail("ingest client: connect failed");
    }
  }

  bool FloorsMet() const {
    const auto& v = visible_ms;
    return rounds_ >= kMaxRounds ||
           (jbench::QuantileReportable(v[0].size(), 0.9) &&
            jbench::QuantileReportable(v[1].size(), 0.5) &&
            jbench::QuantileReportable(v[2].size(), 0.5) &&
            jbench::QuantileReportable(v[3].size(), 0.5));
  }

  void Slice() {
    if (rounds_ >= kMaxRounds) return;
    const size_t per_round = 2 * kTailPerRound + 2;
    for (size_t k = 0; k < per_round; ++k) {
      Apply(ops_[rounds_ * per_round + k]);
    }
    ++rounds_;
  }

  /// The session must agree byte for byte with a one-shot run over its
  /// final active set.
  void Verify() {
    ++ledger_->attempted;
    JoclRuntime runtime(w_.options, RuntimeOptions{kThreads, 0});
    Result<JoclResult> oneshot =
        runtime.Infer(w_.ds, w_.sig, w_.session->active_triples(), w_.weights);
    if (!oneshot.ok() ||
        !SameResult(oneshot.ValueOrDie(), w_.session->result())) {
      ledger_->Fail("ingest: final session result differs from one-shot Infer");
    }
  }

  /// SessionStats per op, summed per op class and overall (traced run).
  struct Sums {
    size_t ops = 0;
    double dirty_shards = 0, dirty_variables = 0, message_updates = 0,
           clean_ratio = 0, hit_ratio = 0;
  };
  std::vector<double> visible_ms[jbench::kOpKinds];
  std::vector<double> visible_lag_ms;  // traced, tail adds
  size_t store_surfaces = 0;
  size_t ops = 0;
  Sums sums[jbench::kOpKinds], all;

 private:
  static constexpr size_t kMaxRounds = 2000;

  void Apply(const jbench::Op& op) {
    const std::vector<size_t>& batch =
        jbench::IsHead(op.kind) ? head_[op.batch] : tail_[op.batch];
    const bool add = op.kind == OpKind::kTailAdd || op.kind == OpKind::kHeadAdd;
    const size_t kind = static_cast<size_t>(op.kind);
    ++ledger_->attempted;
    ++ops;
    SessionStats stats;
    const double t0 = RequestCpu(event_tid_);
    Status status;
    {
      ScopedSpan span(rec_,
                      std::string("core.session.") + jbench::OpKindName(op.kind));
      status = add ? w_.session->AddTriples(batch, &stats)
                   : w_.session->RemoveTriples(batch, &stats);
    }
    if (!status.ok()) {
      ledger_->Fail(std::string("ingest ") + jbench::OpKindName(op.kind) +
                    ": " + status.ToString());
      return;
    }
    // Only adds have a fixed class: a retract may restore a component the
    // session still holds solved.
    if (add &&
        !jbench::OpClassHolds(op.kind, stats.variables, w_.head_variables)) {
      ++ledger_->misclassified;
      ledger_->Fail(std::string("misclassified ") +
                    jbench::OpKindName(op.kind) + ": " +
                    std::to_string(stats.variables) + " dirty variables");
    }
    // Publication layers are traced on tail adds only, so no per-layer
    // quantile mixes op classes.
    const bool tail_add = op.kind == OpKind::kTailAdd;
    SpanRecorder* rec = tail_add ? rec_ : nullptr;
    std::shared_ptr<const CanonStore> next = MakeStore(w_, rec, -1);
    {
      ScopedSpan span(rec, "serve.server.publish");
      server_->Publish(next);
    }
    const double published = RequestCpu(event_tid_);
    if (!PollVisible(&client_, target_, static_cast<int64_t>(next->generation),
                     &last_generation_, ledger_)) {
      return;
    }
    const double seen = RequestCpu(event_tid_);
    visible_ms[kind].push_back((seen - t0) * 1e3);
    if (rec_ == nullptr) return;
    if (tail_add) {
      visible_lag_ms.push_back((seen - published) * 1e3);
      // Side call on the published store: what Publish spent rendering.
      ScopedSpan span(rec_, "serve.response_cache.build");
      BuildResponseCache(*next);
    }
    for (Sums* s : {&sums[kind], &all}) {
      ++s->ops;
      s->dirty_shards += static_cast<double>(stats.dirty_shards);
      s->dirty_variables += static_cast<double>(stats.variables);
      s->message_updates += static_cast<double>(stats.message_updates);
      s->clean_ratio += stats.shards == 0
                            ? 1.0
                            : static_cast<double>(stats.clean_shards) /
                                  static_cast<double>(stats.shards);
      const size_t lookups =
          stats.problem_cache_hits + stats.problem_cache_misses;
      s->hit_ratio += lookups == 0
                          ? 1.0
                          : static_cast<double>(stats.problem_cache_hits) /
                                static_cast<double>(lookups);
    }
  }

  World& w_;
  CanonServer* server_;
  int event_tid_;
  SpanRecorder* rec_;
  Ledger* ledger_;
  std::vector<std::vector<size_t>> tail_;
  std::vector<std::vector<size_t>> head_;
  std::vector<jbench::Op> ops_;
  std::string target_;
  PipeClient client_;
  int64_t last_generation_ = -1;
  size_t rounds_ = 0;
};

// ---- serve -------------------------------------------------------------

/// The serve phase: per slice, a burst of pipelined /lookup windows on one
/// keep-alive connection while an open-loop writer adds and retracts tail
/// batches every kWriterPeriodS.
class ServePhase {
 public:
  ServePhase(World& w, CanonServer* server, int event_tid,
             std::vector<std::vector<size_t>> tail, uint64_t seed,
             Ledger* ledger)
      : w_(w),
        server_(server),
        event_tid_(event_tid),
        ledger_(ledger),
        tail_(std::move(tail)) {
    // The session holds its prefill, the published store's triples.
    lookups_ = RequestMix(w_.session->problem(), seed);
    std::shared_ptr<const CanonStore> store = server_->store();
    for (const Lookup& lookup : lookups_) {
      if (store->FindSurface(lookup.kind, lookup.surface) < 0) {
        ledger_->Fail("serve: mix surface missing from the store");
      }
      mix_.push_back(LookupTarget(lookup));
    }
    order_.resize(tail_.size());
    for (size_t b = 0; b < order_.size(); ++b) order_[b] = b;
    Rng rng(seed ^ 0x5e17e5ULL);
    rng.Shuffle(&order_);
    window_.resize(kWindow);
    if (!client_.Connect(server_->port())) {
      ledger_->Fail("serve client: connect failed");
    }
  }

  bool FloorsMet() const {
    return failed_ || (jbench::QuantileReportable(window_us.size(), 0.5) &&
                       jbench::QuantileReportable(visible_ms.size(), 0.5));
  }

  void Slice(double burst_s) {
    if (failed_) return;
    std::atomic<bool> stop{false};
    std::atomic<bool> done{false};
    std::vector<WriterAdd> adds;  // read only after the writer joins
    const double start = NowSeconds();
    std::thread writer([&] {
      // Ops come in add/retract pairs; a burst ends only between pairs so
      // every burst leaves the session in its prefill state.
      for (size_t i = 0;; ++i) {
        const bool add = i % 2 == 0;
        if (add && stop.load()) break;
        const double due_at = start + static_cast<double>(i) * kWriterPeriodS;
        const double wait = due_at - NowSeconds();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        const double began = NowSeconds();
        const double cpu0 = jbench::ThreadCpuSeconds();
        writer_lag_ms.push_back((began - due_at) * 1e3);
        const std::vector<size_t>& batch = tail_[order_[next_batch_]];
        if (!add) next_batch_ = (next_batch_ + 1) % order_.size();
        SessionStats stats;
        ++writer_ops_;
        Status status = add ? w_.session->AddTriples(batch, &stats)
                            : w_.session->RemoveTriples(batch, &stats);
        if (!status.ok()) {
          ++writer_failures_;
          continue;
        }
        if (add && !jbench::OpClassHolds(OpKind::kTailAdd, stats.variables,
                                         w_.head_variables)) {
          ++writer_misclassified_;
        }
        std::shared_ptr<const CanonStore> next = MakeStore(w_, nullptr, -1);
        server_->Publish(next);
        if (add) {
          adds.push_back({static_cast<int64_t>(next->generation), began - due_at,
                          jbench::ThreadCpuSeconds() - cpu0, NowSeconds()});
        }
      }
      done.store(true);
    });

    std::map<int64_t, double> first_seen;
    bool final_window = false;
    while (!failed_) {
      if (NowSeconds() - start >= burst_s) stop.store(true);
      // One more window after the writer finished, so its last
      // publication is observed.
      if (final_window) break;
      final_window = done.load();
      Window(&first_seen);
    }
    stop.store(true);
    writer.join();
    // Visibility of an add: how late the writer started, the writer's
    // CPU time for add + store + publish, and the wait until a window saw
    // the generation. A generation the reader skipped became visible with
    // the next one it saw: the first sighting of any generation >= g.
    for (const WriterAdd& add : adds) {
      auto seen = first_seen.lower_bound(add.generation);
      if (seen == first_seen.end()) {
        ledger_->Fail("serve: writer generation never seen");
        continue;
      }
      visible_ms.push_back(
          (add.lag + add.cpu + std::max(0.0, seen->second - add.published)) *
          1e3);
    }
  }

  /// Folds the writer's counts into the ledger and reads the server's
  /// cache counters; the traced run adds the in-process read path.
  void Finish(SpanRecorder* rec) {
    ledger_->attempted += writer_ops_;
    for (size_t i = 0; i < writer_failures_; ++i) {
      ledger_->Fail("serve writer op failed");
    }
    ledger_->misclassified += writer_misclassified_;
    for (size_t i = 0; i < writer_misclassified_; ++i) {
      ledger_->Fail("serve writer: tail add dirtied the head");
    }
    const ServeCounters counters = server_->counters();
    const uint64_t lookups = counters.cache_hits + counters.cache_misses;
    cache_hit_ratio = lookups == 0 ? 0.0
                                   : static_cast<double>(counters.cache_hits) /
                                         static_cast<double>(lookups);
    if (rec == nullptr) return;
    std::shared_ptr<const CanonStore> store = server_->store();
    constexpr size_t kBlocks = 21;
    constexpr size_t kPerBlock = 256;
    for (size_t b = 0; b < kBlocks; ++b) {
      ScopedSpan span(rec, "serve.handle_request");
      const double t0 = jbench::ThreadCpuSeconds();
      for (size_t i = 0; i < kPerBlock; ++i) {
        int status = 0;
        const std::string& target = mix_[(b * kPerBlock + i) % mix_.size()];
        std::string body =
            HandleCanonRequest(store.get(), "GET", target, counters, &status);
        if (status != 200 || !jbench::IsValidJson(body)) {
          ledger_->Fail("serve: in-process request failed");
        }
      }
      handle_request_us.push_back((jbench::ThreadCpuSeconds() - t0) * 1e6 /
                                  kPerBlock);
    }
    for (size_t b = 0; b < kBlocks; ++b) {
      ScopedSpan span(rec, "serve.canon_store.find_surface");
      int64_t missing = 0;
      const double t0 = jbench::ThreadCpuSeconds();
      for (const Lookup& lookup : lookups_) {
        missing += store->FindSurface(lookup.kind, lookup.surface) < 0 ? 1 : 0;
      }
      find_surface_ns.push_back((jbench::ThreadCpuSeconds() - t0) * 1e9 /
                                static_cast<double>(lookups_.size()));
      if (missing > 0) ledger_->Fail("serve: in-process lookup missed");
    }
  }

  std::vector<double> window_us;
  std::vector<double> visible_ms;  // writer tail adds, due -> first seen
  std::vector<double> writer_lag_ms;
  std::vector<double> handle_request_us;
  std::vector<double> find_surface_ns;
  double cache_hit_ratio = 0;
  uint64_t requests = 0;

 private:
  void Window(std::map<int64_t, double>* first_seen) {
    for (size_t i = 0; i < kWindow; ++i) {
      window_[i] = &mix_[cursor_];
      cursor_ = (cursor_ + 1) % mix_.size();
    }
    const double c0 = RequestCpu(event_tid_);
    const bool ok = client_.Window(window_, &replies_);
    const double c1 = RequestCpu(event_tid_);
    const double t1 = NowSeconds();
    ledger_->attempted += kWindow;
    requests += kWindow;
    if (!ok) {
      ledger_->Fail("serve: window failed");
      failed_ = true;
      return;
    }
    window_us.push_back((c1 - c0) * 1e6);
    for (const Reply& reply : replies_) {
      if (!CheckReply(reply, &last_generation_)) {
        ledger_->Fail("serve: bad response (status " +
                      std::to_string(reply.status) + ")");
      }
      first_seen->emplace(reply.generation, t1);
    }
  }

  /// One writer add: its generation, start lateness (s), CPU time of add +
  /// store + publish (s) and the wall time publication finished.
  struct WriterAdd {
    int64_t generation;
    double lag;
    double cpu;
    double published;
  };

  World& w_;
  CanonServer* server_;
  int event_tid_;
  Ledger* ledger_;
  std::vector<std::vector<size_t>> tail_;
  std::vector<size_t> order_;
  size_t next_batch_ = 0;
  std::vector<Lookup> lookups_;
  std::vector<std::string> mix_;  // their /lookup targets
  std::vector<const std::string*> window_;
  std::vector<Reply> replies_;
  size_t cursor_ = 0;
  PipeClient client_;
  int64_t last_generation_ = -1;
  size_t writer_ops_ = 0, writer_failures_ = 0, writer_misclassified_ = 0;
  bool failed_ = false;
};

// ---- reporting ---------------------------------------------------------

/// Adds a quantile metric, failing the run when too few samples lie
/// beyond it.
void AddQuantile(std::vector<Metric>* metrics, Ledger* ledger,
                 const std::string& name, const std::vector<double>& samples,
                 double q, const char* unit) {
  if (!jbench::QuantileReportable(samples.size(), q)) {
    ledger->Fail(name + ": only " + std::to_string(samples.size()) +
                 " samples");
    metrics->push_back({name, 0.0, unit});
    return;
  }
  metrics->push_back({name, jbench::Quantile(samples, q), unit});
  std::printf("  %-34s %14.6g %-6s (q%.2f of n=%zu)\n", name.c_str(),
              metrics->back().value, unit, q, samples.size());
}

void AddValue(std::vector<Metric>* metrics, const std::string& name,
              double value, const char* unit) {
  metrics->push_back({name, value, unit});
  std::printf("  %-34s %14.6g %-6s\n", name.c_str(), value, unit);
}

/// Adds the median of \p samples; no samples fails the run.
void AddMedian(std::vector<Metric>* metrics, Ledger* ledger,
               const std::string& name, const std::vector<double>& samples,
               const char* unit) {
  if (samples.empty()) {
    ledger->Fail(name + ": no samples");
    metrics->push_back({name, 0.0, unit});
    return;
  }
  AddValue(metrics, name, Median(samples), unit);
}

/// The end-to-end metrics of an untraced run.
std::vector<Metric> EndToEndMetrics(const World& w,
                                    const std::vector<double>& setup_s,
                                    const OfflinePhase& offline,
                                    const IngestPhase& ingest,
                                    const ServePhase& serve, Ledger* ledger) {
  std::vector<Metric> metrics;
  std::printf("end-to-end metrics:\n");
  // Whole set-ups and offline reps are too costly to repeat 20 times;
  // they report the median of their repetitions (n printed above).
  AddValue(&metrics, "setup_s", Median(setup_s), "s");
  AddValue(&metrics, "peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> rate;
  for (double s : offline.rep_seconds) {
    rate.push_back(static_cast<double>(w.ds.test_triples.size()) / s);
  }
  // Median of rates: the rate of the median rep.
  AddMedian(&metrics, ledger, "offline_triples_per_s", rate, "1/s");
  AddValue(&metrics, "np_avg_f1", offline.np_avg_f1, "f1");
  AddValue(&metrics, "rp_avg_f1", offline.rp_avg_f1, "f1");
  AddValue(&metrics, "entity_link_acc", offline.entity_link_acc, "ratio");
  const auto& v = ingest.visible_ms;
  AddQuantile(&metrics, ledger, "tail_add_visible_p50_ms",
              v[size_t(OpKind::kTailAdd)], 0.5, "ms");
  AddQuantile(&metrics, ledger, "tail_add_visible_p90_ms",
              v[size_t(OpKind::kTailAdd)], 0.9, "ms");
  AddQuantile(&metrics, ledger, "tail_retract_visible_p50_ms",
              v[size_t(OpKind::kTailRetract)], 0.5, "ms");
  AddQuantile(&metrics, ledger, "head_add_visible_p50_ms",
              v[size_t(OpKind::kHeadAdd)], 0.5, "ms");
  AddQuantile(&metrics, ledger, "head_retract_visible_p50_ms",
              v[size_t(OpKind::kHeadRetract)], 0.5, "ms");
  AddQuantile(&metrics, ledger, "read_window_p50_us", serve.window_us, 0.5,
              "us");
  AddQuantile(&metrics, ledger, "serve_visible_p50_ms", serve.visible_ms,
              0.5, "ms");
  return metrics;
}

/// The per-layer ledger of a traced run.
std::vector<Metric> LayerMetrics(const SpanRecorder& recorder,
                                 const OfflinePhase& offline,
                                 const IngestPhase& ingest,
                                 const ServePhase& serve,
                                 Ledger* ledger) {
  std::vector<Metric> metrics;
  std::printf("per-layer metrics:\n");
  auto median_ms = [&](const std::string& name, const std::string& span) {
    std::vector<double> d = recorder.CpuDurations(span);
    for (double& x : d) x *= 1e3;
    AddMedian(&metrics, ledger, name, d, "ms");
  };
  median_ms("data.generate_ms", "data.generate");
  median_ms("core.signals.build_ms", "core.signals.build");
  median_ms("core.sharded_learner.learn_ms", "core.sharded_learner.learn");
  median_ms("core.session.prefill_ms", "core.session.prefill");
  // Offline stages: per traced assembly, summed over shards and threads;
  // the median over the traced assemblies.
  const std::vector<jbench::Span> spans = recorder.Spans();
  std::vector<int> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "offline.infer") roots.push_back(int(i));
  }
  const char* const kStages[] = {
      "core.problem.build", "core.signal_cache.build",
      "core.shard.partition", "core.graph_builder.build", "graph.compile",
      "graph.flat_lbp.run", "core.decode.assemble"};
  std::vector<double> coverage, stage_cpu;
  std::map<std::string, std::vector<double>> per_root;
  for (int root : roots) {
    std::vector<int> run_ids;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent == root && spans[i].name == "core.shard.run") {
        run_ids.push_back(int(i));
      }
    }
    std::map<std::string, double> sum;
    std::vector<std::pair<double, double>> leaves;
    for (size_t i = 0; i < spans.size(); ++i) {
      const int parent = spans[i].parent;
      const bool under_root = parent == root;
      const bool under_run =
          std::find(run_ids.begin(), run_ids.end(), parent) != run_ids.end();
      if (!under_root && !under_run) continue;
      if (spans[i].name == "core.shard.run") continue;
      sum[spans[i].name] += spans[i].cpu;
      leaves.emplace_back(spans[i].start, spans[i].end);
    }
    for (const char* stage : kStages) per_root[stage].push_back(sum[stage]);
    double total = 0.0;
    for (const auto& [name, cpu] : sum) total += cpu;
    stage_cpu.push_back(total);
    coverage.push_back(jbench::UnionCoverage(
        leaves, spans[size_t(root)].start, spans[size_t(root)].end));
  }
  for (const char* stage : kStages) {
    std::vector<double> v = per_root[stage];
    for (double& x : v) x *= 1e3;
    AddMedian(&metrics, ledger, std::string(stage) + "_ms", v, "ms");
  }
  AddValue(&metrics, "core.shard.components",
           double(offline.counts.components), "count");
  AddValue(&metrics, "graph.variables", double(offline.counts.variables),
           "count");
  AddValue(&metrics, "graph.factors", double(offline.counts.factors),
           "count");
  AddValue(&metrics, "graph.flat_lbp.message_updates",
           double(offline.counts.message_updates), "count");
  AddValue(&metrics, "graph.flat_lbp.unconverged_shards",
           double(offline.counts.unconverged_shards), "count");
  median_ms("core.graph_builder.head_build_ms",
            "core.graph_builder.head_build");
  median_ms("graph.flat_lbp.head_run_ms", "graph.flat_lbp.head_run");
  for (size_t k = 0; k < jbench::kOpKinds; ++k) {
    const std::string name = jbench::OpKindName(OpKind(k));
    median_ms("core.session." + name + "_ms", "core.session." + name);
  }
  median_ms("serve.canon_store.build_ms", "serve.canon_store.build");
  median_ms("serve.server.publish_ms", "serve.server.publish");
  median_ms("serve.response_cache.build_ms", "serve.response_cache.build");
  AddMedian(&metrics, ledger, "serve.visible_lag_ms", ingest.visible_lag_ms,
            "ms");
  const IngestPhase::Sums& all = ingest.all;
  const double n = all.ops == 0 ? 1.0 : double(all.ops);
  AddValue(&metrics, "core.session.dirty_shards", all.dirty_shards / n,
           "count");
  AddValue(&metrics, "core.session.dirty_variables",
           all.dirty_variables / n, "count");
  AddValue(&metrics, "core.session.message_updates",
           all.message_updates / n, "count");
  AddValue(&metrics, "core.session.clean_shard_ratio", all.clean_ratio / n,
           "ratio");
  AddValue(&metrics, "core.session.problem_cache_hit_ratio",
           all.hit_ratio / n, "ratio");
  // Per-class work of the adds; retracts restore the components their
  // add replaced and re-infer nothing.
  for (OpKind kind : {OpKind::kTailAdd, OpKind::kHeadAdd}) {
    const size_t k = static_cast<size_t>(kind);
    const IngestPhase::Sums& s = ingest.sums[k];
    const double m = s.ops == 0 ? 1.0 : double(s.ops);
    const std::string prefix =
        std::string("core.session.") + jbench::OpKindName(kind);
    AddValue(&metrics, prefix + ".dirty_variables", s.dirty_variables / m,
             "count");
    AddValue(&metrics, prefix + ".message_updates", s.message_updates / m,
             "count");
  }
  AddValue(&metrics, "serve.canon_store.surfaces",
           double(ingest.store_surfaces), "count");
  AddValue(&metrics, "ingest.misclassified_ops", double(ledger->misclassified),
           "count");
  AddMedian(&metrics, ledger, "serve.handle_request_us",
            serve.handle_request_us, "us");
  AddMedian(&metrics, ledger, "serve.canon_store.find_surface_ns",
            serve.find_surface_ns, "ns");
  AddValue(&metrics, "serve.cache_hit_ratio", serve.cache_hit_ratio,
           "ratio");
  AddMedian(&metrics, ledger, "serve.writer_lag_ms", serve.writer_lag_ms,
            "ms");
  const double cov =
      coverage.empty() ? 0.0 : *std::min_element(coverage.begin(),
                                                 coverage.end());
  AddValue(&metrics, "trace.stage_coverage", cov, "ratio");
  if (cov < 0.95) ledger->Fail("trace: stage spans cover under 95%");
  // The stages are the benchmark's copy of Infer; their CPU over that of
  // the program's own JoclRuntime::Infer shows cost the copy lacks (< 1)
  // or that the program has since shed (> 1).
  double infer_ratio = 0.0;
  if (!stage_cpu.empty() && !offline.rep_seconds.empty()) {
    infer_ratio = Median(stage_cpu) / Median(offline.rep_seconds);
  }
  AddValue(&metrics, "trace.infer_cpu_ratio", infer_ratio, "ratio");
  double overhead = 0.0;
  if (!offline.traced_stage_seconds.empty() &&
      !offline.untraced_stage_seconds.empty()) {
    overhead = Median(offline.traced_stage_seconds) /
               Median(offline.untraced_stage_seconds);
  }
  AddValue(&metrics, "trace.overhead_ratio", overhead, "ratio");
  return metrics;
}

int Usage() {
  std::fprintf(stderr,
               "usage: jbench --workload offline|ingest|serve "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  Recipe recipe{};
  bool known = false;
  for (int p = 0; p < 3; ++p) {
    if (args.workload == kPhaseNames[p]) {
      recipe = kRecipes[p];
      known = true;
    }
  }
  if (!known || !(args.seconds > 0)) return Usage();
  Logger::Global().set_threshold(LogLevel::kWarning);
  // One CPU for the whole process (threads inherit the mask): the client
  // and the event thread then always share a core and never run on
  // sibling hyperthreads, so their CPU clocks do not depend on where the
  // scheduler puts them.
  if (!PinToOneCpu()) {
    std::fprintf(stderr, "jbench: cannot pin to one CPU\n");
    return 1;
  }

  SpanRecorder recorder;
  SpanRecorder* rec = args.trace ? &recorder : nullptr;
  Ledger ledger;

  // ---- setup: the first is used; the rest are timed between ticks --------
  std::vector<double> setup_s;
  auto set_up = [&] {
    const double t0 = jbench::ThreadCpuSeconds();
    ScopedSpan span(rec, "setup");
    std::unique_ptr<World> world = SetUp(args.seed, rec, span.id());
    setup_s.push_back(jbench::ThreadCpuSeconds() - t0);
    return world;
  };
  std::unique_ptr<World> world = set_up();
  World& w = *world;
  std::printf("jbench: workload %s, seed %llu, %.1fs; corpus %zu test "
              "triples, largest component %zu triples / %zu variables; "
              "pools %zu tail (of %zu eligible) + %zu head triples\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              w.ds.test_triples.size(), w.head_triples, w.head_variables,
              w.pools.tail.size(), w.tail_eligible, w.pools.head.size());

  ServeOptions serve_options;
  serve_options.num_workers = 1;
  CanonServer server(serve_options);
  const std::vector<int> before = ThreadIds();
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "jbench: server: %s\n", started.ToString().c_str());
    return 1;
  }
  std::vector<int> event_tids;
  const std::vector<int> after = ThreadIds();
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(event_tids));
  if (event_tids.size() != 1) {
    std::fprintf(stderr, "jbench: cannot identify the event thread\n");
    return 1;
  }
  server.Publish(MakeStore(w, nullptr, -1));
  if (!EventClockAdvances(
          server.port(), event_tids[0],
          "/lookup?surface=" +
              UrlEncode(server.store()->SurfaceText(CanonKind::kNp, 0)))) {
    std::fprintf(stderr, "jbench: cannot read the event thread's CPU clock\n");
    return 1;
  }
  // Ingest and the serve writer use disjoint tail batches, so neither
  // re-adds a component the other left solved in the session.
  std::vector<std::vector<size_t>> tail =
      jbench::SplitBatches(w.pools.tail, w.batch);
  std::vector<std::vector<size_t>> serve_tail(
      tail.begin() + static_cast<std::ptrdiff_t>(kIngestTailBatches),
      tail.end());
  tail.resize(kIngestTailBatches);

  OfflinePhase offline(w, &ledger);
  IngestPhase ingest(w, &server, event_tids[0], std::move(tail), args.seed,
                     rec, &ledger);
  ServePhase serve(w, &server, event_tids[0], std::move(serve_tail), args.seed,
                   &ledger);

  // ---- the interleaved schedule ------------------------------------------
  // Machine speed drifts over seconds, so every phase takes its samples in
  // slices spread over the whole run instead of in one block.
  const double start = NowSeconds();
  size_t ticks = 0;
  for (;; ++ticks) {
    const double elapsed = NowSeconds() - start;
    const bool floors = offline.rep_seconds.size() >= kOfflineMinReps &&
                        ingest.FloorsMet() && serve.FloorsMet();
    if (elapsed >= args.seconds && floors) break;
    if (elapsed >= kMaxMeasureS) {
      ledger.Fail("sample floors not met within the time cap");
      break;
    }
    if (ticks % recipe.offline_every == 0) offline.Slice();
    for (size_t r = 0; r < recipe.ingest_rounds; ++r) ingest.Slice();
    serve.Slice(recipe.serve_burst_s);
    if (setup_s.size() < kSetupReps && (ticks + 1) % kSetupEvery == 0) {
      set_up();
    }
  }
  const double measured_s = NowSeconds() - start;
  while (setup_s.size() < kSetupReps) set_up();
  ingest.Verify();
  serve.Finish(rec);
  if (rec != nullptr) offline.TracedStages(rec);
  server.Stop();

  std::printf("  %zu ticks in %.1fs: offline %zu reps; ingest %zu ops; serve "
              "%llu reads + %zu writer ops; setups",
              ticks, measured_s, offline.rep_seconds.size(), ingest.ops,
              static_cast<unsigned long long>(serve.requests),
              serve.writer_lag_ms.size());
  for (double t : setup_s) std::printf(" %.3fs", t);
  std::printf("\n");

  std::vector<Metric> metrics =
      rec == nullptr
          ? EndToEndMetrics(w, setup_s, offline, ingest, serve, &ledger)
          : LayerMetrics(recorder, offline, ingest, serve, &ledger);
  if (!args.trace_out.empty() && !recorder.WriteJson(args.trace_out)) {
    ledger.Fail("trace: cannot write " + args.trace_out);
  }
  std::printf("  ingest.misclassified_ops = %llu, failed ops = %llu of %llu\n",
              static_cast<unsigned long long>(ledger.misclassified),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted));
  for (const std::string& error : ledger.errors) {
    std::printf("  error: %s\n", error.c_str());
  }
  for (const Metric& m : metrics) {
    if (!jbench::ValidMetricName(m.name) || !jbench::ValidUnit(m.unit)) {
      ledger.Fail("bad metric name or unit: " + m.name);
    }
  }
  const bool correct = ledger.failed == 0 && ledger.misclassified == 0;
  std::printf("%s\n", jbench::RenderResult(correct, ledger.attempted,
                                           ledger.failed, metrics)
                          .c_str());
  return 0;
}

// Distributed serving bench: what sharding the CanonStore buys. Times
// the partitioner itself (split + merge byte-identity is a hard
// correctness gate), sweeps aggregate keep-alive QPS over 1 / 2 / 4
// shard backends with a shard-aware client (each request hashed to its
// owner, the router hop elided — the scaling ceiling), measures the
// same load through a fronting CanonRouter (the extra hop's cost).
// Emits BENCH_serve_distributed.json (path: JOCL_BENCH_OUT, default
// ./BENCH_serve_distributed.json) for CI tracking.
//
// Acceptance (ISSUE 8): every response byte-checked against the
// monolith (hard fail), and on machines with >= 4 cores the 2-shard
// aggregate QPS must reach 1.5x the single-shard figure — the CI gate.
// Single-core runners still run everything but skip the scaling gate:
// with one core there is no parallelism for a second shard to claim.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/runtime.h"
#include "serve/canon_store.h"
#include "serve/http_client.h"
#include "serve/json.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/shard_store.h"
#include "serve/snapshot_io.h"

namespace jocl {
namespace bench {
namespace {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

struct Phase {
  double wall_seconds = 0.0;
  size_t requests = 0;
  size_t errors = 0;
  size_t body_mismatches = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

void PrintPhase(const char* label, const Phase& phase) {
  std::printf("%s: %zu requests, %zu errors, %zu body mismatches, "
              "%.0f QPS, p50 %.3fms p99 %.3fms\n",
              label, phase.requests, phase.errors, phase.body_mismatches,
              phase.qps, phase.p50_ms, phase.p99_ms);
}

/// One read workload item: a target, the shard that owns it, and the
/// exact bytes the monolith renders for it.
struct WorkItem {
  std::string target;
  uint32_t shard = 0;
  std::string expected_body;
};

/// \p clients keep-alive readers, each holding one connection per
/// backend and hashing every request straight to its owner shard
/// (\p ports). Every body is byte-checked against the monolith.
Phase RunShardedPhase(const std::vector<int>& ports,
                      const std::vector<WorkItem>& work, size_t clients,
                      size_t per_client) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<size_t> errors{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(per_client);
      std::vector<HttpConnection> conns(ports.size());
      for (size_t i = 0; i < per_client; ++i) {
        const WorkItem& item = work[(c + i * 7) % work.size()];
        HttpConnection& conn = conns[item.shard];
        if (!conn.connected()) {
          Result<HttpConnection> fresh =
              HttpConnection::Connect(ports[item.shard]);
          if (!fresh.ok()) {
            errors.fetch_add(1);
            continue;
          }
          conn = fresh.MoveValueOrDie();
        }
        Stopwatch request_watch;
        Result<HttpResponse> response = conn.Get(item.target);
        const double ms = request_watch.ElapsedMillis();
        if (!response.ok() || response.ValueOrDie().status != 200) {
          errors.fetch_add(1);
        } else if (response.ValueOrDie().body != item.expected_body) {
          mismatches.fetch_add(1);
        } else {
          latencies[c].push_back(ms);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Phase phase;
  phase.wall_seconds = wall.ElapsedSeconds();
  phase.requests = clients * per_client;
  phase.errors = errors.load();
  phase.body_mismatches = mismatches.load();
  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  phase.qps = phase.wall_seconds > 0.0
                  ? static_cast<double>(all.size()) / phase.wall_seconds
                  : 0.0;
  phase.p50_ms = Percentile(all, 50.0);
  phase.p99_ms = Percentile(all, 99.0);
  return phase;
}

/// Same workload through one port (the router): the shard hash happens
/// on the server side instead of in the client.
Phase RunRoutedPhase(int port, const std::vector<WorkItem>& work,
                     size_t clients, size_t per_client) {
  std::vector<int> one_port = {port};
  std::vector<WorkItem> rehomed = work;
  for (WorkItem& item : rehomed) item.shard = 0;
  return RunShardedPhase(one_port, rehomed, clients, per_client);
}

void EmitPhase(FILE* out, const char* name, size_t shards, size_t clients,
               const Phase& phase, double partition_seconds,
               bool trailing_comma) {
  std::fprintf(out,
               "    {\"name\": \"%s\", \"shards\": %zu, \"clients\": %zu, "
               "\"requests\": %zu, \"errors\": %zu, \"body_mismatches\": "
               "%zu, \"qps\": %.1f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
               "\"partition_seconds\": %.5f}%s\n",
               name, shards, clients, phase.requests, phase.errors,
               phase.body_mismatches, phase.qps, phase.p50_ms, phase.p99_ms,
               partition_seconds, trailing_comma ? "," : "");
}

int Run() {
  int failures = 0;
  BenchEnv env = BenchEnv::FromEnv();
  Banner("Distributed serving tier (sharded CanonStore + CanonRouter)", env);

  auto pack = DataPack::ReVerb(env);
  const Dataset& ds = pack->dataset();
  const std::vector<size_t>& eval = pack->eval_triples();
  std::printf("inferring over %zu triples...\n", eval.size());
  JoclResult result =
      JoclRuntime().Infer(ds, pack->signals(), eval).MoveValueOrDie();
  JoclProblem problem = BuildProblem(ds, pack->signals(), eval);
  const CanonStore monolith =
      BuildCanonStore(problem, result, ds.ckb, /*generation=*/1);
  const std::string monolith_bytes = SerializeSnapshot(monolith);
  std::printf("monolith: %zu NP surfaces in %zu clusters, %zu snapshot "
              "bytes\n",
              monolith.np.surface_count(), monolith.np.cluster_count(),
              monolith_bytes.size());

  // ---- read workload (targets + expected monolith bytes) ------------------
  const ServeCounters no_counters;
  std::vector<std::string> surfaces;
  for (size_t s = 0; s < monolith.np.surface_count(); ++s) {
    surfaces.emplace_back(monolith.SurfaceText(CanonKind::kNp, s));
  }

  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  const size_t kClients = 4;
  const size_t kPerClient = static_cast<size_t>(800.0 * env.scale) + 100;
  const std::vector<size_t> shard_counts = {1, 2, 4};

  // ---- partition + merge (correctness gate) + direct scaling sweep --------
  std::vector<Phase> sweep;
  std::vector<double> partition_seconds;
  for (size_t num_shards : shard_counts) {
    Stopwatch partition_watch;
    Result<std::vector<CanonStore>> split =
        BuildShardedCanonStores(monolith, static_cast<uint32_t>(num_shards));
    if (!split.ok()) {
      std::printf("FAIL: partition into %zu shards: %s\n", num_shards,
                  split.status().ToString().c_str());
      return 1;
    }
    std::vector<CanonStore> shards = split.MoveValueOrDie();
    const double seconds = partition_watch.ElapsedSeconds();
    partition_seconds.push_back(seconds);
    Result<CanonStore> merged = MergeShardedCanonStores(shards);
    if (!merged.ok() ||
        SerializeSnapshot(merged.ValueOrDie()) != monolith_bytes) {
      std::printf("FAIL: %zu-shard merge is not byte-identical to the "
                  "monolith\n",
                  num_shards);
      ++failures;
    }
    std::printf("partitioned into %zu shard(s) in %.4fs (merge "
                "byte-identical: yes)\n",
                num_shards, seconds);

    // One event thread per backend: the scaling story is across
    // processes-worth of servers, not epoll threads within one.
    ServeOptions options;
    options.num_workers = 1;
    std::vector<std::unique_ptr<CanonServer>> servers;
    std::vector<int> ports;
    for (size_t k = 0; k < num_shards; ++k) {
      servers.push_back(std::make_unique<CanonServer>(options));
      Status status = servers.back()->Start();
      if (!status.ok()) {
        std::printf("ERROR: %s\n", status.ToString().c_str());
        return 1;
      }
      servers.back()->Publish(
          std::make_shared<const CanonStore>(std::move(shards[k])));
      ports.push_back(servers.back()->port());
    }
    std::vector<WorkItem> work;
    for (size_t i = 0; i < 32 && i < surfaces.size(); ++i) {
      WorkItem item;
      item.target = "/lookup?surface=" + UrlEncode(surfaces[i]);
      item.shard =
          ShardOfSurface(surfaces[i], static_cast<uint32_t>(num_shards));
      int status = 0;
      item.expected_body = HandleCanonRequest(&monolith, "GET", item.target,
                                              no_counters, &status);
      if (status != 200) continue;
      work.push_back(std::move(item));
    }
    Phase phase = RunShardedPhase(ports, work, kClients, kPerClient);
    char label[64];
    std::snprintf(label, sizeof(label), "direct sharded (%zu shards)",
                  num_shards);
    PrintPhase(label, phase);
    if (phase.errors > 0 || phase.body_mismatches > 0) ++failures;
    sweep.push_back(phase);
    for (auto& server : servers) server->Stop();
  }

  const double qps_1 = sweep[0].qps;
  const double qps_2 = sweep[1].qps;
  const double qps_4 = sweep[2].qps;
  const double speedup_2 = qps_1 > 0.0 ? qps_2 / qps_1 : 0.0;
  const double speedup_4 = qps_1 > 0.0 ? qps_4 / qps_1 : 0.0;
  std::printf("aggregate QPS scaling: 1 shard %.0f, 2 shards %.0f (%.2fx), "
              "4 shards %.0f (%.2fx)\n",
              qps_1, qps_2, speedup_2, qps_4, speedup_4);
  const bool gate_scaling = hardware >= 4;
  if (gate_scaling && speedup_2 < 1.5) {
    std::printf("FAIL: 2-shard aggregate QPS is %.2fx the single shard "
                "(gate: >= 1.5x on >= 4 cores)\n",
                speedup_2);
    ++failures;
  } else if (!gate_scaling) {
    std::printf("note: scaling gate skipped (%zu hardware thread(s) — "
                "shards share one core here)\n",
                hardware);
  }

  // ---- router-fronted phase -----------------------------------------------
  constexpr size_t kRouterShards = 4;
  std::vector<CanonStore> router_shards =
      BuildShardedCanonStores(monolith, kRouterShards).MoveValueOrDie();
  ServeOptions backend_options;
  backend_options.num_workers = 1;
  std::vector<std::unique_ptr<CanonServer>> backends;
  std::vector<int> backend_ports;
  for (size_t k = 0; k < kRouterShards; ++k) {
    backends.push_back(std::make_unique<CanonServer>(backend_options));
    Status status = backends.back()->Start();
    if (!status.ok()) {
      std::printf("ERROR: %s\n", status.ToString().c_str());
      return 1;
    }
    backends.back()->Publish(
        std::make_shared<const CanonStore>(std::move(router_shards[k])));
    backend_ports.push_back(backends.back()->port());
  }
  ServeOptions router_options;
  router_options.num_workers = std::min<size_t>(4, hardware);
  CanonRouter router(backend_ports, router_options);
  Status status = router.Start();
  if (!status.ok()) {
    std::printf("ERROR: %s\n", status.ToString().c_str());
    return 1;
  }
  std::vector<WorkItem> routed_work;
  for (size_t i = 0; i < 32 && i < surfaces.size(); ++i) {
    WorkItem item;
    item.target = "/lookup?surface=" + UrlEncode(surfaces[i]);
    int http_status = 0;
    item.expected_body = HandleCanonRequest(&monolith, "GET", item.target,
                                            no_counters, &http_status);
    if (http_status != 200) continue;
    routed_work.push_back(std::move(item));
  }
  Phase routed =
      RunRoutedPhase(router.port(), routed_work, kClients, kPerClient);
  PrintPhase("router-fronted (4 shards)", routed);
  if (routed.errors > 0 || routed.body_mismatches > 0) ++failures;
  const double router_overhead =
      routed.qps > 0.0 ? qps_4 / routed.qps : 0.0;
  std::printf("router hop cost: direct 4-shard %.0f QPS vs routed %.0f QPS "
              "(%.2fx)\n",
              qps_4, routed.qps, router_overhead);
  router.Stop();
  for (auto& backend : backends) backend->Stop();

  // ---- JSON artifact ------------------------------------------------------
  const char* out_path = std::getenv("JOCL_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_serve_distributed.json";
  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scale\": %.3f,\n  \"seed\": %llu,\n", env.scale,
               static_cast<unsigned long long>(env.seed));
  std::fprintf(out, "  \"triples\": %zu,\n", eval.size());
  std::fprintf(out, "  \"hardware_threads\": %zu,\n", hardware);
  std::fprintf(out, "  \"shard_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    EmitPhase(out, "direct", shard_counts[i], kClients, sweep[i],
              partition_seconds[i], i + 1 < sweep.size());
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"router\": [\n");
  EmitPhase(out, "routed", kRouterShards, kClients, routed, 0.0, false);
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"scaling\": {\"qps_1\": %.1f, \"qps_2\": %.1f, "
               "\"qps_4\": %.1f, \"speedup_2\": %.3f, \"speedup_4\": %.3f, "
               "\"router_overhead\": %.3f, \"gated\": %s},\n",
               qps_1, qps_2, qps_4, speedup_2, speedup_4, router_overhead,
               gate_scaling ? "true" : "false");
  std::fprintf(out, "  \"failures\": %d\n}\n", failures);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);

  if (failures > 0) {
    std::printf("%d failure(s)\n", failures);
    return 1;
  }
  std::printf("all distributed serving gates passed\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace jocl

int main() { return jocl::bench::Run(); }

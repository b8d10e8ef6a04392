// jocl_serve — the canonical-KB serving front end (src/serve).
//
// Serves a CanonStore over HTTP/1.1 on 127.0.0.1. Two data modes:
//
//   * snapshot mode (--snapshot PATH): load a snapshot produced by
//     jocl_stream --snapshot-out or SaveSnapshot, publish it, serve.
//   * live-ingestion mode (default): generate a ReVerb45K-like
//     benchmark, replay its test triples as ingestion batches through a
//     JoclSession, and republish a fresh store after every batch while
//     readers keep hitting the old one — the RCU swap never blocks them.
//
// And two topologies:
//
//   * single (default): one CanonServer serving the monolithic store.
//   * distributed (--shards N [--router]): every publish partitions the
//     store with BuildShardedCanonStores and hands shard k to its own
//     CanonServer on an ephemeral port; with --router a CanonRouter
//     fronts them on the requested --port, fanning /lookup and /link by
//     surface hash and broadcasting /cluster.
//
// Usage:
//   jocl_serve [scale] [--port N] [--workers N] [--batches N]
//              [--shards N] [--router]
//              [--snapshot PATH] [--snapshot-out PATH]
//              [--serve-seconds N] [--retrain]
//              [--idle-timeout-ms N] [--no-prerender]
//              [--trace-out PATH]
//
//   scale             workload scale in live mode (default 0.2)
//   --port N          TCP port (default 0 = ephemeral; printed on start)
//   --workers N       epoll event-loop threads (default 4)
//   --shards N        partition each published store into N shard
//                     backends (default 1 = monolithic)
//   --router          front the shard backends with a CanonRouter on
//                     --port; its port prints first
//   --idle-timeout-ms N  close keep-alive connections idle this long
//                     (default 5000; slow partial requests get a 408)
//   --no-prerender    skip the pre-rendered response cache; every
//                     request goes through the allocating renderer
//   --batches N       ingestion batches in live mode (default 4)
//   --snapshot PATH   serve this snapshot instead of live ingestion
//   --snapshot-out P  in live mode, also save a snapshot after each batch
//   --serve-seconds N exit after N seconds of serving (default 0 = until
//                     SIGINT/SIGTERM)
//   --retrain         in live mode, after ingestion: learn weights on the
//                     validation split (ShardedLearner) and hot-swap them
//                     into the running session via UpdateWeights — the
//                     publish callback republishes the store while readers
//                     keep being served (learn → infer → serve)
//   --trace-out P     dump the ingestion/learning pipeline's spans as
//                     Chrome trace-event JSON on exit (serving itself is
//                     measured by /metrics histograms, not spans)
//
// Endpoints: /lookup?surface=S[&kind=np|rp], /cluster?id=N[&kind=..],
// /link?surface=S[&kind=..], /stats. See docs/serving.md.
#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "data/generator.h"
#include "obs/trace.h"
#include "serve/canon_store.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/shard_store.h"
#include "serve/snapshot_io.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace jocl;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintSample(const CanonStore& store) {
  if (store.np.surface_count() > 0) {
    const std::string surface(store.SurfaceText(CanonKind::kNp, 0));
    std::printf("sample surface: %s\n", surface.c_str());
    std::fflush(stdout);
  }
}

void PrintCounters(const char* label, const ServeCounters& counters) {
  std::printf("%s: served %llu requests (%llu ok, %llu not found, "
              "%llu bad, %llu unavailable), %llu publishes\n",
              label, static_cast<unsigned long long>(counters.requests),
              static_cast<unsigned long long>(counters.ok),
              static_cast<unsigned long long>(counters.not_found),
              static_cast<unsigned long long>(counters.bad_request),
              static_cast<unsigned long long>(counters.unavailable),
              static_cast<unsigned long long>(counters.publishes));
  std::printf("%s: event loop: %llu connections accepted, %llu keep-alive "
              "reuses, %llu timed out; cache %llu hits / %llu misses, "
              "%llu response bytes written\n",
              label,
              static_cast<unsigned long long>(counters.connections_accepted),
              static_cast<unsigned long long>(counters.connections_reused),
              static_cast<unsigned long long>(counters.connections_timed_out),
              static_cast<unsigned long long>(counters.cache_hits),
              static_cast<unsigned long long>(counters.cache_misses),
              static_cast<unsigned long long>(counters.writev_bytes));
}

int Usage() {
  std::fprintf(stderr,
               "usage: jocl_serve [scale] [--port N] [--workers N]"
               " [--batches N]\n"
               "                  [--shards N] [--router]\n"
               "                  [--snapshot PATH] [--snapshot-out PATH]\n"
               "                  [--serve-seconds N] [--retrain]\n"
               "                  [--idle-timeout-ms N] [--no-prerender]\n"
               "                  [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.2;
  size_t batches = 4;
  size_t serve_seconds = 0;
  size_t shards = 1;
  bool router_mode = false;
  bool retrain = false;
  std::string snapshot_in;
  std::string snapshot_out;
  std::string trace_out;
  ServeOptions serve_options;
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
    if (const char* v = value_of("--port")) {
      size_t port = 0;
      if (!ParseCount("--port", v, &port, 65535)) return Usage();
      serve_options.port = static_cast<int>(port);
    } else if (const char* v = value_of("--workers")) {
      if (!ParseCount("--workers", v, &serve_options.num_workers)) {
        return Usage();
      }
    } else if (const char* v = value_of("--batches")) {
      if (!ParseCount("--batches", v, &batches)) return Usage();
    } else if (const char* v = value_of("--shards")) {
      if (!ParseCount("--shards", v, &shards)) return Usage();
      if (shards == 0) shards = 1;
    } else if (const char* v = value_of("--snapshot")) {
      snapshot_in = v;
    } else if (const char* v = value_of("--snapshot-out")) {
      snapshot_out = v;
    } else if (const char* v = value_of("--trace-out")) {
      trace_out = v;
    } else if (const char* v = value_of("--serve-seconds")) {
      if (!ParseCount("--serve-seconds", v, &serve_seconds)) return Usage();
    } else if (const char* v = value_of("--idle-timeout-ms")) {
      size_t idle_ms = 0;
      if (!ParseCount("--idle-timeout-ms", v, &idle_ms, INT_MAX)) {
        return Usage();
      }
      serve_options.idle_timeout_ms = static_cast<int>(idle_ms);
    } else if (std::strcmp(argv[i], "--no-prerender") == 0) {
      serve_options.prerender = false;
    } else if (std::strcmp(argv[i], "--router") == 0) {
      router_mode = true;
    } else if (std::strcmp(argv[i], "--retrain") == 0) {
      retrain = true;
    } else {
      scale = std::atof(argv[i]);
      if (scale <= 0) scale = 0.2;
    }
  }
  if (batches == 0) batches = 1;
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  TraceRecorder recorder;
  std::optional<ScopedTraceSession> trace;
  if (!trace_out.empty()) trace.emplace(&recorder);

  // ---- topology ------------------------------------------------------------
  const bool distributed = router_mode || shards > 1;
  std::unique_ptr<CanonServer> single;
  std::vector<std::unique_ptr<CanonServer>> shard_servers;
  std::unique_ptr<CanonRouter> router;
  if (!distributed) {
    single = std::make_unique<CanonServer>(serve_options);
    Status status = single->Start();
    if (!status.ok()) return Fail(status);
    std::printf("listening on http://127.0.0.1:%d\n", single->port());
  } else {
    // Shard backends always bind ephemeral ports; --port belongs to the
    // router (or, without one, stays unused so two backends never race
    // for the same port).
    ServeOptions shard_options = serve_options;
    shard_options.port = 0;
    std::vector<int> shard_ports;
    for (size_t k = 0; k < shards; ++k) {
      shard_servers.push_back(std::make_unique<CanonServer>(shard_options));
      Status status = shard_servers.back()->Start();
      if (!status.ok()) return Fail(status);
      shard_ports.push_back(shard_servers.back()->port());
    }
    if (router_mode) {
      router = std::make_unique<CanonRouter>(shard_ports, serve_options);
      Status status = router->Start();
      if (!status.ok()) return Fail(status);
      std::printf("listening on http://127.0.0.1:%d\n", router->port());
      std::printf("router fronting %zu shard(s):", shards);
    } else {
      std::printf("listening on http://127.0.0.1:%d\n", shard_ports[0]);
      std::printf("%zu shard backend(s), no router:", shards);
    }
    for (size_t k = 0; k < shards; ++k) {
      std::printf(" %zu=http://127.0.0.1:%d", k, shard_ports[k]);
    }
    std::printf("\n");
  }
  std::printf("endpoints: /lookup?surface=S[&kind=np|rp]  "
              "/cluster?id=N  /link?surface=S  /stats\n");
  std::fflush(stdout);

  // Publishes one monolithic store generation to the active topology:
  // straight to the single server, or partitioned across the shard set.
  auto publish = [&](std::shared_ptr<const CanonStore> store) -> Status {
    if (!distributed) {
      single->Publish(std::move(store));
      return Status::OK();
    }
    Result<std::vector<CanonStore>> parts =
        BuildShardedCanonStores(*store, static_cast<uint32_t>(shards));
    JOCL_RETURN_NOT_OK(parts.status());
    std::vector<CanonStore> stores = parts.MoveValueOrDie();
    for (size_t k = 0; k < stores.size(); ++k) {
      shard_servers[k]->Publish(
          std::make_shared<const CanonStore>(std::move(stores[k])));
    }
    return Status::OK();
  };

  // ---- snapshot mode -------------------------------------------------------
  if (!snapshot_in.empty()) {
    Stopwatch watch;
    Result<CanonStore> loaded = LoadSnapshot(snapshot_in);
    if (!loaded.ok()) return Fail(loaded.status());
    auto store =
        std::make_shared<const CanonStore>(loaded.MoveValueOrDie());
    std::printf("loaded snapshot %s in %.3fs (%zu NP surfaces, "
                "%zu NP clusters, generation %llu)\n",
                snapshot_in.c_str(), watch.ElapsedSeconds(),
                store->np.surface_count(), store->np.cluster_count(),
                static_cast<unsigned long long>(store->generation));
    PrintSample(*store);
    Status published = publish(std::move(store));
    if (!published.ok()) return Fail(published);
  } else {
    // ---- live-ingestion mode ----------------------------------------------
    std::printf("generating ReVerb45K-like benchmark (scale %.2f)...\n",
                scale);
    std::fflush(stdout);
    static Dataset ds = GenerateReVerb45K(scale).MoveValueOrDie();
    static SignalBundle sig = BuildSignals(ds).MoveValueOrDie();
    static JoclSession session(&ds, &sig);
    bool first_publish = true;
    session.SetPublishCallback([&](const JoclSession& s) {
      auto store = std::make_shared<const CanonStore>(BuildCanonStore(
          s.problem(), s.result(), ds.ckb, s.generation()));
      if (!snapshot_out.empty()) {
        size_t bytes = 0;
        Status save = SaveSnapshot(*store, snapshot_out, &bytes);
        if (!save.ok()) {
          std::fprintf(stderr, "snapshot save failed: %s\n",
                       save.ToString().c_str());
        } else {
          std::printf("  snapshot -> %s (%zu bytes)\n", snapshot_out.c_str(),
                      bytes);
        }
      }
      if (first_publish) {
        PrintSample(*store);
        first_publish = false;
      }
      Status published = publish(std::move(store));
      if (!published.ok()) {
        std::fprintf(stderr, "publish failed: %s\n",
                     published.ToString().c_str());
      }
    });
    const std::vector<size_t>& stream = ds.test_triples;
    for (size_t b = 0; b < batches && g_stop == 0; ++b) {
      const size_t begin = b * stream.size() / batches;
      const size_t end = (b + 1) * stream.size() / batches;
      std::vector<size_t> batch(stream.begin() + begin,
                                stream.begin() + end);
      SessionStats stats;
      Stopwatch watch;
      Status status = session.AddTriples(batch, &stats);
      if (!status.ok()) return Fail(status);
      std::printf("batch %zu/%zu: %zu triples in %.3fs "
                  "(%zu/%zu shards dirty) -> published generation %zu\n",
                  b + 1, batches, batch.size(), watch.ElapsedSeconds(),
                  stats.dirty_shards, stats.shards, session.generation());
      std::fflush(stdout);
    }

    // ---- retrain + hot-swap ------------------------------------------------
    // Readers keep hitting the current store the whole time: learning runs
    // beside the server, and UpdateWeights republishes through the same
    // non-blocking RCU swap as an ingestion batch.
    if (retrain && g_stop == 0) {
      std::printf("retraining on the validation split (%zu triples)...\n",
                  ds.validation_triples.size());
      std::fflush(stdout);
      Result<std::vector<double>> weights = Jocl().LearnWeights(ds, sig);
      if (!weights.ok()) return Fail(weights.status());
      SessionStats stats;
      Stopwatch watch;
      Status status = session.UpdateWeights(weights.MoveValueOrDie(), &stats);
      if (!status.ok()) return Fail(status);
      std::printf("retrained -> hot-swapped weights, re-inferred %zu shards "
                  "in %.3fs, published generation %zu\n",
                  stats.dirty_shards, watch.ElapsedSeconds(),
                  session.generation());
      std::fflush(stdout);
    }
  }

  const std::string serve_note =
      serve_seconds > 0 ? " for " + std::to_string(serve_seconds) + "s"
                        : std::string(" until SIGINT");
  std::printf("serving%s...\n", serve_note.c_str());
  std::fflush(stdout);
  Stopwatch uptime;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (serve_seconds > 0 && uptime.ElapsedSeconds() >= serve_seconds) break;
  }
  if (!distributed) {
    const ServeCounters counters = single->counters();
    single->Stop();
    PrintCounters("server", counters);
  } else {
    if (router) {
      const ServeCounters counters = router->counters();
      router->Stop();
      PrintCounters("router", counters);
    }
    for (size_t k = 0; k < shard_servers.size(); ++k) {
      const ServeCounters counters = shard_servers[k]->counters();
      shard_servers[k]->Stop();
      const std::string label = "shard " + std::to_string(k);
      PrintCounters(label.c_str(), counters);
    }
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

// Distributed serving tier tests: partition/merge byte-equality, router
// fan-out byte-identity against the monolith, generation consistency
// under concurrent republish across every shard, and the
// fault-injection acceptance — a shard killed mid-traffic recovers from
// its latest snapshot after a generation check, rejoins the router on a
// fresh port, and no client ever observes a mixed-generation response.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "data/generator.h"
#include "serve/canon_store.h"
#include "serve/http_client.h"
#include "serve/json.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/shard_store.h"
#include "serve/snapshot_io.h"

namespace jocl {
namespace {

// A generated ReVerb45K-like world, large enough that FNV sharding
// spreads surfaces across every shard, ingested in three batches to
// produce three published generations of the monolithic store.
class ShardFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(GenerateReVerb45K(0.05).MoveValueOrDie());
    signals_ = new SignalBundle(BuildSignals(*dataset_).MoveValueOrDie());
    generations_ = new std::vector<CanonStore>();
    JoclSession session(dataset_, signals_);
    session.SetPublishCallback([&](const JoclSession& s) {
      generations_->push_back(BuildCanonStore(
          s.problem(), s.result(), dataset_->ckb, s.generation()));
    });
    const std::vector<size_t>& stream = dataset_->test_triples;
    constexpr size_t kBatches = 3;
    for (size_t b = 0; b < kBatches; ++b) {
      const size_t begin = b * stream.size() / kBatches;
      const size_t end = (b + 1) * stream.size() / kBatches;
      ASSERT_TRUE(session
                      .AddTriples(std::vector<size_t>(stream.begin() + begin,
                                                      stream.begin() + end))
                      .ok());
    }
    ASSERT_EQ(generations_->size(), kBatches);
  }

  static void TearDownTestSuite() {
    delete generations_;
    delete signals_;
    delete dataset_;
    generations_ = nullptr;
    signals_ = nullptr;
    dataset_ = nullptr;
  }

  static const CanonStore& monolith() { return generations_->back(); }

  /// Renders \p store's exact response body for \p target — the bytes
  /// every shard (and the router in front of them) must reproduce.
  static std::string Expected(const CanonStore& store,
                              const std::string& target, int* status) {
    const ServeCounters no_counters;
    return HandleCanonRequest(&store, "GET", target, no_counters, status);
  }

  /// Finds a surface of \p store whose FNV hash routes to \p shard.
  static std::string SurfaceOwnedBy(const CanonStore& store, uint32_t shard,
                                    uint32_t num_shards) {
    for (size_t s = 0; s < store.np.surface_count(); ++s) {
      const std::string text(store.SurfaceText(CanonKind::kNp, s));
      if (ShardOfSurface(text, num_shards) == shard) return text;
    }
    return "";
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
  static std::vector<CanonStore>* generations_;
};

Dataset* ShardFixture::dataset_ = nullptr;
SignalBundle* ShardFixture::signals_ = nullptr;
std::vector<CanonStore>* ShardFixture::generations_ = nullptr;

// ---------- partitioning -----------------------------------------------------

TEST_F(ShardFixture, PartitionAndMergeRoundTripByteIdentically) {
  const CanonStore& m = monolith();
  const std::string monolith_bytes = SerializeSnapshot(m);
  for (uint32_t n : {1u, 2u, 3u, 4u}) {
    Result<std::vector<CanonStore>> split = BuildShardedCanonStores(m, n);
    ASSERT_TRUE(split.ok()) << split.status();
    const std::vector<CanonStore>& shards = split.ValueOrDie();
    ASSERT_EQ(shards.size(), n);
    for (uint32_t k = 0; k < n; ++k) {
      ASSERT_TRUE(ValidateCanonStore(shards[k]).ok())
          << "shard " << k << "/" << n;
      EXPECT_EQ(shards[k].shard_index, k);
      EXPECT_EQ(shards[k].shard_count, n);
      EXPECT_EQ(shards[k].generation, m.generation);
      EXPECT_EQ(shards[k].triple_count, m.triple_count);
    }
    // Every monolith surface lives on the shard its hash names, under
    // its monolith-global id, with its full cluster membership.
    for (CanonKind kind : {CanonKind::kNp, CanonKind::kRp}) {
      const CanonSection& section = kind == CanonKind::kNp ? m.np : m.rp;
      for (size_t s = 0; s < section.surface_count(); ++s) {
        const std::string text(m.SurfaceText(kind, s));
        const uint32_t owner = ShardOfSurface(text, n);
        const int64_t local = shards[owner].FindSurface(kind, text);
        ASSERT_GE(local, 0) << text << " missing from shard " << owner;
        EXPECT_EQ(shards[owner].GlobalSurfaceId(kind, local), s) << text;
        EXPECT_EQ(
            shards[owner].ClustersOf(kind, static_cast<size_t>(local)).size(),
            m.ClustersOf(kind, s).size())
            << text;
      }
    }
    // The union reconstructs the monolith snapshot byte for byte.
    Result<CanonStore> merged = MergeShardedCanonStores(shards);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(SerializeSnapshot(merged.ValueOrDie()), monolith_bytes)
        << n << " shards";
  }
}

TEST_F(ShardFixture, PartitionAndMergeRejectInvalidInputs) {
  const CanonStore& m = monolith();
  EXPECT_FALSE(BuildShardedCanonStores(m, 0).ok());
  std::vector<CanonStore> shards =
      BuildShardedCanonStores(m, 2).MoveValueOrDie();
  // A shard is not a monolith: re-sharding must refuse.
  EXPECT_FALSE(BuildShardedCanonStores(shards[0], 2).ok());
  // Incomplete and duplicated shard sets.
  EXPECT_FALSE(MergeShardedCanonStores({shards[0]}).ok());
  EXPECT_FALSE(MergeShardedCanonStores({shards[0], shards[0]}).ok());
  // Mixed generations.
  std::vector<CanonStore> mixed = shards;
  mixed[1].generation += 1;
  EXPECT_FALSE(MergeShardedCanonStores(mixed).ok());
}

// ---------- router fan-out ---------------------------------------------------

TEST_F(ShardFixture, RouterServesByteIdenticalResponsesToMonolith) {
  constexpr uint32_t kShards = 3;
  const CanonStore& m = monolith();
  std::vector<CanonStore> shards =
      BuildShardedCanonStores(m, kShards).MoveValueOrDie();
  ServeOptions options;
  options.num_workers = 1;
  std::vector<std::unique_ptr<CanonServer>> servers;
  std::vector<int> ports;
  for (uint32_t k = 0; k < kShards; ++k) {
    servers.push_back(std::make_unique<CanonServer>(options));
    ASSERT_TRUE(servers[k]->Start().ok());
    servers[k]->Publish(std::make_shared<const CanonStore>(shards[k]));
    ports.push_back(servers[k]->port());
  }
  CanonRouter router(ports, options);
  ASSERT_TRUE(router.Start().ok());

  Result<HttpConnection> connected = HttpConnection::Connect(router.port());
  ASSERT_TRUE(connected.ok()) << connected.status();
  HttpConnection conn = connected.MoveValueOrDie();

  // Sampled data targets over both sections, plus every error shape.
  std::vector<std::string> targets;
  for (CanonKind kind : {CanonKind::kNp, CanonKind::kRp}) {
    const char* suffix = kind == CanonKind::kNp ? "&kind=np" : "&kind=rp";
    const CanonSection& section = kind == CanonKind::kNp ? m.np : m.rp;
    for (size_t s = 0; s < section.surface_count(); s += 7) {
      const std::string encoded(UrlEncode(m.SurfaceText(kind, s)));
      targets.push_back("/lookup?surface=" + encoded + suffix);
      targets.push_back("/link?surface=" + encoded + suffix);
    }
    for (size_t c = 0; c < section.cluster_count(); c += 5) {
      targets.push_back("/cluster?id=" +
                        std::to_string(m.GlobalClusterId(kind, c)) + suffix);
    }
  }
  targets.push_back("/lookup?surface=no-such-surface-xyz");
  targets.push_back("/link?surface=no-such-surface-xyz");
  targets.push_back("/cluster?id=999999999");
  targets.push_back("/cluster?id=abc");
  targets.push_back("/lookup");
  targets.push_back("/nope");

  for (const std::string& target : targets) {
    Result<HttpResponse> via_router = conn.Get(target);
    ASSERT_TRUE(via_router.ok()) << target << ": " << via_router.status();
    int status = 0;
    const std::string expected = Expected(m, target, &status);
    EXPECT_EQ(via_router.ValueOrDie().status, status) << target;
    EXPECT_EQ(via_router.ValueOrDie().body, expected) << target;
  }
  // The fan-out reached every backend, and the router saw one uniform
  // generation across the fleet.
  for (uint32_t k = 0; k < kShards; ++k) {
    EXPECT_GT(servers[k]->counters().requests, 0u) << "shard " << k;
    EXPECT_EQ(router.shard_generation(k),
              static_cast<int64_t>(m.generation))
        << "shard " << k;
  }
  router.Stop();
}

TEST_F(ShardFixture, RouterAggregatesShardMetricsWithLabels) {
  constexpr uint32_t kShards = 2;
  const CanonStore& m = monolith();
  std::vector<CanonStore> shards =
      BuildShardedCanonStores(m, kShards).MoveValueOrDie();
  ServeOptions options;
  options.num_workers = 1;
  std::vector<std::unique_ptr<CanonServer>> servers;
  std::vector<int> ports;
  for (uint32_t k = 0; k < kShards; ++k) {
    servers.push_back(std::make_unique<CanonServer>(options));
    ASSERT_TRUE(servers[k]->Start().ok());
    servers[k]->Publish(std::make_shared<const CanonStore>(shards[k]));
    ports.push_back(servers[k]->port());
  }
  CanonRouter router(ports, options);
  ASSERT_TRUE(router.Start().ok());

  // One data request through the router: shard 0's forwarding counters
  // and its generation gauge move; shard 1's gauge stays at -1 (a
  // /metrics forward carries no generation header).
  const std::string surface = SurfaceOwnedBy(m, 0, kShards);
  ASSERT_FALSE(surface.empty());
  Result<HttpResponse> data =
      HttpGet(router.port(), "/lookup?surface=" + UrlEncode(surface));
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_EQ(data.ValueOrDie().status, 200);

  Result<HttpResponse> scrape = HttpGet(router.port(), "/metrics");
  ASSERT_TRUE(scrape.ok()) << scrape.status();
  EXPECT_EQ(scrape.ValueOrDie().status, 200);
  const std::string& body = scrape.ValueOrDie().body;
  const std::string generation = std::to_string(m.generation);
  // Router-own per-shard families.
  EXPECT_NE(body.find("jocl_shard_generation{shard=\"0\"} " + generation),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("jocl_shard_generation{shard=\"1\"} -1"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("jocl_shard_port{shard=\"0\"} " +
                      std::to_string(ports[0])),
            std::string::npos);
  EXPECT_NE(body.find("jocl_shard_forwarded_total{shard=\"0\"}"),
            std::string::npos);
  // Shard scrapes folded in with a shard label on every sample — both
  // unlabeled families and already-labeled ones.
  EXPECT_NE(body.find("jocl_requests_total{shard=\"0\"} 1"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("jocl_requests_total{shard=\"1\"} 0"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("jocl_generation{shard=\"1\"} " + generation),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("jocl_responses_total{shard=\"0\",code=\"200\"}"),
            std::string::npos)
      << body;
  // One HELP/TYPE per family even though samples come from the router
  // and both shards.
  size_t type_lines = 0;
  const std::string needle = "# TYPE jocl_requests_total counter";
  for (size_t at = body.find(needle); at != std::string::npos;
       at = body.find(needle, at + needle.size())) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u) << body;

  // A down shard is skipped, not an error: its samples vanish while the
  // aggregate stays serveable.
  servers[1]->Stop();
  Result<HttpResponse> degraded = HttpGet(router.port(), "/metrics");
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded.ValueOrDie().status, 200);
  EXPECT_EQ(degraded.ValueOrDie().body.find("jocl_requests_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(degraded.ValueOrDie().body.find("jocl_requests_total{shard=\"0\"}"),
            std::string::npos);
  router.Stop();
}

// ---------- generation consistency under republish ---------------------------

TEST_F(ShardFixture, RoutedReadersNeverObserveMixedGenerations) {
  constexpr uint32_t kShards = 2;
  constexpr size_t kReaders = 4;
  // Pre-shard all three generations so the publisher can swap fast.
  std::vector<std::vector<CanonStore>> sharded;
  for (const CanonStore& gen : *generations_) {
    sharded.push_back(BuildShardedCanonStores(gen, kShards).MoveValueOrDie());
  }

  // Read targets drawn from the first generation (alive in all three),
  // with the expected body pre-rendered per generation: a response
  // stamped generation g must match g's bytes exactly — anything else
  // is a torn or mixed-generation answer.
  std::vector<std::string> targets;
  const CanonStore& first = (*generations_)[0];
  for (size_t s = 0; s < first.np.surface_count(); s += 3) {
    targets.push_back("/lookup?surface=" +
                      UrlEncode(first.SurfaceText(CanonKind::kNp, s)));
  }
  ASSERT_GE(targets.size(), 4u);
  std::map<int64_t, std::vector<std::string>> expected;
  for (const CanonStore& gen : *generations_) {
    std::vector<std::string>& bodies =
        expected[static_cast<int64_t>(gen.generation)];
    for (const std::string& target : targets) {
      int status = 0;
      bodies.push_back(Expected(gen, target, &status));
    }
  }

  ServeOptions options;
  options.num_workers = 1;
  std::vector<std::unique_ptr<CanonServer>> servers;
  std::vector<int> ports;
  for (uint32_t k = 0; k < kShards; ++k) {
    servers.push_back(std::make_unique<CanonServer>(options));
    ASSERT_TRUE(servers[k]->Start().ok());
    servers[k]->Publish(std::make_shared<const CanonStore>(sharded[0][k]));
    ports.push_back(servers[k]->port());
  }
  ServeOptions router_options;
  router_options.num_workers = 2;
  CanonRouter router(ports, router_options);
  ASSERT_TRUE(router.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      HttpConnection conn;
      size_t i = r;  // stagger the walk per reader
      while (!stop.load(std::memory_order_relaxed)) {
        if (!conn.connected()) {
          Result<HttpConnection> fresh =
              HttpConnection::Connect(router.port());
          if (!fresh.ok()) {
            failures.fetch_add(1);
            continue;
          }
          conn = fresh.MoveValueOrDie();
        }
        const size_t t = i++ % targets.size();
        Result<HttpResponse> response = conn.Get(targets[t]);
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const HttpResponse& got = response.ValueOrDie();
        auto bodies = expected.find(got.generation);
        if (bodies == expected.end() || got.body != bodies->second[t]) {
          mismatches.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }

  // Republish every generation on every shard, repeatedly, while the
  // readers stream. Shards transiently disagree about the current
  // generation — that is the point — but each body still comes from
  // exactly one shard's atomically-swapped bundle.
  for (int round = 0; round < 8; ++round) {
    for (size_t g = 0; g < sharded.size(); ++g) {
      for (uint32_t k = 0; k < kShards; ++k) {
        servers[k]->Publish(
            std::make_shared<const CanonStore>(sharded[g][k]));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0) << "a reader saw a body that matches no "
                                     "fully-published generation";
  EXPECT_GT(reads.load(), 0u);
  router.Stop();
}

// ---------- fault injection: kill, recover, rejoin ---------------------------

TEST_F(ShardFixture, KilledShardRecoversFromLatestSnapshot) {
  constexpr uint32_t kShards = 2;
  constexpr uint32_t kVictim = 1;
  std::vector<std::vector<CanonStore>> sharded;
  for (const CanonStore& gen : *generations_) {
    sharded.push_back(BuildShardedCanonStores(gen, kShards).MoveValueOrDie());
  }

  // The victim's durable state: one full snapshot per published
  // generation, as `jocl_serve --snapshot-out` saves after every batch.
  std::vector<std::string> snapshot_paths;
  for (size_t g = 0; g < sharded.size(); ++g) {
    snapshot_paths.push_back(::testing::TempDir() + "/jocl_shard1.g" +
                             std::to_string(g + 1) + ".snap");
    ASSERT_TRUE(SaveSnapshot(sharded[g][kVictim], snapshot_paths.back()).ok());
  }

  // Serve the latest generation on both shards, fronted by the router.
  const CanonStore& m = monolith();
  ServeOptions options;
  options.num_workers = 1;
  std::vector<std::unique_ptr<CanonServer>> servers;
  std::vector<int> ports;
  for (uint32_t k = 0; k < kShards; ++k) {
    servers.push_back(std::make_unique<CanonServer>(options));
    ASSERT_TRUE(servers[k]->Start().ok());
    servers[k]->Publish(std::make_shared<const CanonStore>(sharded[2][k]));
    ports.push_back(servers[k]->port());
  }
  CanonRouter router(ports, options);
  ASSERT_TRUE(router.Start().ok());

  const std::string survivor_surface = SurfaceOwnedBy(m, 0, kShards);
  const std::string victim_surface = SurfaceOwnedBy(m, kVictim, kShards);
  ASSERT_FALSE(survivor_surface.empty());
  ASSERT_FALSE(victim_surface.empty());
  const std::string survivor_target =
      "/lookup?surface=" + UrlEncode(survivor_surface);
  const std::string victim_target =
      "/lookup?surface=" + UrlEncode(victim_surface);
  int expected_status = 0;
  const std::string survivor_body =
      Expected(m, survivor_target, &expected_status);
  ASSERT_EQ(expected_status, 200);
  const std::string victim_body = Expected(m, victim_target, &expected_status);
  ASSERT_EQ(expected_status, 200);

  // Background traffic across both shards for the whole kill/recover
  // window. Every 200 must carry the latest generation's exact bytes
  // (the only generation ever published here); 503 is the one other
  // legal answer while the victim is down.
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> unavailable{0};
  std::atomic<int> transport_errors{0};
  std::atomic<uint64_t> reads{0};
  std::thread traffic([&] {
    HttpConnection conn;
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!conn.connected()) {
        Result<HttpConnection> fresh = HttpConnection::Connect(router.port());
        if (!fresh.ok()) {
          transport_errors.fetch_add(1);
          continue;
        }
        conn = fresh.MoveValueOrDie();
      }
      const bool to_victim = (i++ % 2) == 0;
      const std::string& target = to_victim ? victim_target : survivor_target;
      Result<HttpResponse> response = conn.Get(target);
      if (!response.ok()) {
        transport_errors.fetch_add(1);
        continue;
      }
      const HttpResponse& got = response.ValueOrDie();
      if (got.status == 503) {
        unavailable.fetch_add(1);
      } else if (got.status != 200 ||
                 got.body != (to_victim ? victim_body : survivor_body)) {
        mismatches.fetch_add(1);
      }
      reads.fetch_add(1);
    }
  });

  // Warm traffic, then kill the victim mid-stream. The router has seen
  // the victim serve the latest generation before it dies.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Result<HttpResponse> before = HttpGet(router.port(), victim_target);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before.ValueOrDie().status, 200);
  ASSERT_EQ(router.shard_generation(kVictim),
            static_cast<int64_t>(m.generation));
  servers[kVictim]->Stop();

  // The router degrades exactly to the victim's key range: survivor
  // keys keep answering, victim keys 503 after the retry.
  Result<HttpResponse> down = HttpGet(router.port(), victim_target);
  ASSERT_TRUE(down.ok()) << down.status();
  EXPECT_EQ(down.ValueOrDie().status, 503) << down.ValueOrDie().body;
  Result<HttpResponse> alive = HttpGet(router.port(), survivor_target);
  ASSERT_TRUE(alive.ok()) << alive.status();
  EXPECT_EQ(alive.ValueOrDie().status, 200);
  EXPECT_EQ(alive.ValueOrDie().body, survivor_body);
  // Hold the outage open until the background reader has seen it.
  for (int spin = 0; spin < 400 && unavailable.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Recovery: the latest snapshot, accepted only if it is at least as
  // new as the generation the router last saw from the victim — so a
  // rejoin can never roll readers back. It must be byte-identical to the
  // store the victim was serving when it died.
  auto fresh_enough = [&](const CanonStore& store) {
    return static_cast<int64_t>(store.generation) >=
           router.shard_generation(kVictim);
  };
  Result<CanonStore> recovered = LoadSnapshot(snapshot_paths.back());
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_TRUE(fresh_enough(recovered.ValueOrDie()))
      << "snapshot generation " << recovered.ValueOrDie().generation
      << " is older than the router's " << router.shard_generation(kVictim);
  EXPECT_EQ(SerializeSnapshot(recovered.ValueOrDie()),
            SerializeSnapshot(sharded[2][kVictim]));
  // A stale snapshot loads cleanly but fails the generation check.
  Result<CanonStore> stale = LoadSnapshot(snapshot_paths.front());
  ASSERT_TRUE(stale.ok()) << stale.status();
  EXPECT_FALSE(fresh_enough(stale.ValueOrDie()))
      << "generation " << stale.ValueOrDie().generation;

  // Rejoin: a new process on a new ephemeral port, pointed at by the
  // router. In-flight readers reconnect on their next request to it.
  CanonServer revived(options);
  ASSERT_TRUE(revived.Start().ok());
  revived.Publish(
      std::make_shared<const CanonStore>(recovered.MoveValueOrDie()));
  ASSERT_NE(revived.port(), ports[kVictim]);
  router.SetShardPort(kVictim, revived.port());

  Result<HttpResponse> back = HttpGet(router.port(), victim_target);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.ValueOrDie().status, 200) << back.ValueOrDie().body;
  EXPECT_EQ(back.ValueOrDie().body, victim_body);
  EXPECT_EQ(back.ValueOrDie().generation,
            static_cast<int64_t>(m.generation));

  // Let the background reader observe the recovered shard too.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  traffic.join();

  EXPECT_EQ(mismatches.load(), 0)
      << "a client observed a non-latest-generation body";
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GE(unavailable.load(), 1)
      << "the kill window produced no 503 — the victim was never hit "
         "while down";
  // The router's telemetry recorded the outage and the rejoin.
  EXPECT_GE(router.shard_generation(kVictim),
            static_cast<int64_t>(m.generation));
  router.Stop();
  revived.Stop();
  for (const std::string& path : snapshot_paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace jocl

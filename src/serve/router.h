#ifndef JOCL_SERVE_ROUTER_H_
#define JOCL_SERVE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/event_server.h"
#include "serve/http_client.h"

namespace jocl {

/// \brief The distributed tier's thin front end: an `EventHttpServer`
/// that owns no store and fans `/lookup`, `/link` and `/cluster` out to
/// shard backends (`CanonServer` processes serving the stores of
/// `BuildShardedCanonStores`).
///
/// Routing is the same hash the partitioner used: `/lookup` and `/link`
/// go to `ShardOfSurface(surface, shard_count)`; `/cluster` is
/// broadcast in shard order and the first non-404 response wins (every
/// cluster lives on the shard owning each of its members, and ids the
/// shard set does not carry 404 on every shard with the monolith's
/// exact body). Each event thread keeps one keep-alive `HttpConnection`
/// per shard, reconnecting when the backend's port changes
/// (`SetShardPort`, the recovery rejoin path) or the socket dies.
///
/// **Generation consistency**: a response body is always relayed
/// verbatim from exactly one shard — the router never merges data from
/// two backends — so a client can never observe a mixed-generation
/// body. The backend's `X-Jocl-Generation` header is relayed and
/// recorded per shard (`/stats` exposes it), which is how the
/// distributed tests prove no torn generation is ever visible.
///
/// **Fault handling**: a failed backend request is retried once on a
/// fresh connection; if that also fails the router answers 503 and
/// counts a failure for the shard. A shard whose port is unset (0)
/// 503s immediately.
class CanonRouter : public EventHttpServer {
 public:
  /// \p shard_ports[k] is the port shard k's `CanonServer` listens on
  /// (0 = not up yet; requests for it answer 503 until `SetShardPort`).
  explicit CanonRouter(std::vector<int> shard_ports,
                       ServeOptions options = {});
  ~CanonRouter() override;

  size_t shard_count() const { return shards_.size(); }

  /// Points shard \p shard at a (possibly new) backend port — the
  /// recovery rejoin: a restarted shard comes back on a fresh ephemeral
  /// port and the router's event threads reconnect on their next
  /// request to it. Thread-safe.
  void SetShardPort(size_t shard, int port);

  int shard_port(size_t shard) const;

  /// Last generation observed from shard \p shard's responses; -1
  /// before its first data response.
  int64_t shard_generation(size_t shard) const;

 protected:
  std::unique_ptr<ThreadContext> MakeThreadContext() override;
  void HandleRequest(const RequestHead& request, const CanonTarget& target,
                     ThreadContext* context, HttpReply* reply) override;

 private:
  /// Health and telemetry of one backend, shared across event threads.
  /// The counters and gauges live on the router's registry under
  /// `shard="k"` labels (port/generation keep atomics for the cheap
  /// accessor reads; the gauges mirror them for `/metrics`).
  struct ShardState {
    std::atomic<int> port{0};
    std::atomic<int64_t> generation{-1};
    Counter* forwarded = nullptr;
    Counter* retries = nullptr;
    Counter* failures = nullptr;
    Gauge* port_gauge = nullptr;
    Gauge* generation_gauge = nullptr;
  };

  /// Per-event-thread backend connection pool.
  struct RouterContext;

  /// One backend request with the retry-once contract. Returns false
  /// when the shard is down (caller answers 503).
  bool Forward(RouterContext* ctx, size_t shard, const std::string& target,
               HttpResponse* out);
  void Relay(HttpResponse response, HttpReply* reply);
  std::string StatsJson() const;
  /// `/metrics`: the router's own registry plus every live shard's
  /// scrape, shard samples re-labeled with `shard="k"`.
  void AggregatedMetrics(RouterContext* ctx, HttpReply* reply);

  std::vector<std::unique_ptr<ShardState>> shards_;
  int backend_timeout_ms_ = 2000;
};

}  // namespace jocl

#endif  // JOCL_SERVE_ROUTER_H_

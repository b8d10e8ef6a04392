#ifndef JOCL_SERVE_SERVER_H_
#define JOCL_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "serve/canon_store.h"
#include "serve/event_server.h"
#include "serve/response_cache.h"
#include "util/result.h"

namespace jocl {

/// \brief Pure request dispatcher behind the event loop: routes a
/// request target (`/lookup?surface=...`, `/cluster?id=...`,
/// `/link?surface=...`, `/stats`) against an immutable store and returns
/// the JSON body. \p store may be null (not published yet — 503 for data
/// endpoints, zeroed `/stats`). Sets \p http_status to the response
/// code. Exposed separately so tests can drive routing without sockets.
/// Data bodies come from `CanonRenderer` (serve/render.h), the renderer
/// `BuildResponseCache` also uses, so cached and rendered bytes agree.
///
/// Surface and cluster ids in responses are always **global** (monolith)
/// ids — on a shard store they go through the section's global maps —
/// so the owner shard's body is byte-identical to the monolith's for
/// the same request.
std::string HandleCanonRequest(const CanonStore* store,
                               std::string_view method,
                               std::string_view target,
                               const ServeCounters& counters,
                               int* http_status);

/// \brief The one resolve step of a data request (`target.is_data()`):
/// the store-local surface id of a `/lookup` or `/link` target, or the
/// local cluster id of a `/cluster` target's global id; -1 when \p store
/// does not carry it. Both the arena (`ResponseCache::At`) and the
/// renderer answer from this id.
int64_t ResolveCanonTarget(const CanonStore& store, const CanonTarget& target);

/// \brief The single-store serving front end: an `EventHttpServer`
/// over an RCU-swapped (store + pre-rendered cache) bundle.
///
/// The served state is a `std::shared_ptr<const ServingBundle>` — the
/// CanonStore plus the responses pre-rendered from it — read with
/// `std::atomic_load` per request and swapped whole by `Publish`:
/// readers pin whichever bundle they loaded and **never block on a
/// publication** (read-copy-update), and because body arena and store
/// travel together a reader can never pair a cached body with a
/// mismatched generation. The steady-state hot path is
/// parse → resolve → `writev` of precomputed header + body — zero
/// allocation, zero JSON work.
///
/// Every response rendered from a published store carries an
/// `X-Jocl-Generation` header — the router and the distributed tests
/// use it to prove generation consistency end to end.
///
/// Endpoints (reference + worked curl examples in docs/serving.md):
///   GET /lookup?surface=S[&kind=np|rp]   cluster + members + link of S
///   GET /cluster?id=N[&kind=np|rp]       members + link of cluster N
///   GET /link?surface=S[&kind=np|rp]     canonical CKB link of S
///   GET /stats                           store + request counters
///   GET /metrics                         Prometheus text exposition
class CanonServer : public EventHttpServer {
 public:
  explicit CanonServer(ServeOptions options = {});
  ~CanonServer() override;

  /// Atomically swaps the served store; when pre-rendering is enabled
  /// the response cache is built here (publisher's cost, never the
  /// readers', recorded in `jocl_publish_render_seconds` and
  /// `jocl_response_arena_bytes`) and swapped under the same pointer.
  /// Thread-safe against concurrent readers and other publishers; null
  /// resets to "not published".
  void Publish(std::shared_ptr<const CanonStore> store);

  /// The currently served store (atomic load; may be null).
  std::shared_ptr<const CanonStore> store() const;

  ServeCounters counters() const override;

 protected:
  void HandleRequest(const RequestHead& request, const CanonTarget& target,
                     ThreadContext* context, HttpReply* reply) override;

 private:
  /// Accessed only through std::atomic_load / std::atomic_store.
  std::shared_ptr<const ServingBundle> bundle_;

  // Store-serving families on the server-scoped registry (the event
  // loop's request counters live in the base class).
  Counter* publishes_ = nullptr;
  Counter* cache_hits_ = nullptr;
  Counter* cache_misses_ = nullptr;
  Gauge* published_ = nullptr;
  Gauge* generation_ = nullptr;
  Histogram* render_seconds_ = nullptr;
  Gauge* arena_bytes_ = nullptr;
};

}  // namespace jocl

#endif  // JOCL_SERVE_SERVER_H_

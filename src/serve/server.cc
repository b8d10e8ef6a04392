#include "serve/server.h"

#include <utility>

#include "serve/http_util.h"
#include "serve/json.h"
#include "serve/render.h"

namespace jocl {
namespace {

const char* KindName(CanonKind kind) {
  return kind == CanonKind::kNp ? "np" : "rp";
}

/// The 404 body of a data target the store does not carry.
std::string NotFoundBody(const CanonTarget& target) {
  if (target.endpoint == CanonEndpoint::kCluster) {
    return ErrorBody("cluster id out of range");
  }
  std::string out = "{\"error\":\"surface not found\",\"surface\":";
  AppendJsonString(&out, target.surface);
  out.append(",\"kind\":\"");
  out.append(KindName(target.kind));
  out.append("\"}");
  return out;
}

std::string HandleStats(const CanonStore* store,
                        const ServeCounters& counters, int* http_status) {
  *http_status = 200;
  std::string out = "{\"published\":";
  out.append(store != nullptr ? "true" : "false");
  if (store != nullptr) {
    out.append(",\"generation\":");
    out.append(std::to_string(store->generation));
    out.append(",\"triples\":");
    out.append(std::to_string(store->triple_count));
    if (store->shard_count > 0) {
      out.append(",\"shard\":{\"index\":");
      out.append(std::to_string(store->shard_index));
      out.append(",\"count\":");
      out.append(std::to_string(store->shard_count));
      out.push_back('}');
    }
    out.append(",\"np\":{\"surfaces\":");
    out.append(std::to_string(store->np.surface_count()));
    out.append(",\"clusters\":");
    out.append(std::to_string(store->np.cluster_count()));
    out.append("},\"rp\":{\"surfaces\":");
    out.append(std::to_string(store->rp.surface_count()));
    out.append(",\"clusters\":");
    out.append(std::to_string(store->rp.cluster_count()));
    out.push_back('}');
  }
  out.append(",\"requests\":");
  out.append(std::to_string(counters.requests));
  out.append(",\"scrapes\":");
  out.append(std::to_string(counters.scrapes));
  out.append(",\"ok\":");
  out.append(std::to_string(counters.ok));
  out.append(",\"not_found\":");
  out.append(std::to_string(counters.not_found));
  out.append(",\"bad_request\":");
  out.append(std::to_string(counters.bad_request));
  out.append(",\"unavailable\":");
  out.append(std::to_string(counters.unavailable));
  out.append(",\"publishes\":");
  out.append(std::to_string(counters.publishes));
  out.append(",\"events\":{\"accepted\":");
  out.append(std::to_string(counters.connections_accepted));
  out.append(",\"reused\":");
  out.append(std::to_string(counters.connections_reused));
  out.append(",\"timed_out\":");
  out.append(std::to_string(counters.connections_timed_out));
  out.append(",\"cache_hits\":");
  out.append(std::to_string(counters.cache_hits));
  out.append(",\"cache_misses\":");
  out.append(std::to_string(counters.cache_misses));
  out.append(",\"writev_bytes\":");
  out.append(std::to_string(counters.writev_bytes));
  out.append("}}");
  return out;
}

/// Answers a parsed request from its resolved \p local id (-1 when
/// unresolved): every error, `/stats`, and the rendered data bodies.
std::string RenderCanonResponse(const CanonStore* store,
                                const CanonTarget& target, int64_t local,
                                const ServeCounters& counters,
                                int* http_status) {
  if (target.error_status == 405) {
    *http_status = 405;
    return ErrorBody(target.error);
  }
  if (target.endpoint == CanonEndpoint::kStats) {
    return HandleStats(store, counters, http_status);
  }
  if (target.endpoint > CanonEndpoint::kCluster) {
    *http_status = 404;
    std::string out = "{\"error\":\"unknown endpoint\",\"path\":";
    AppendJsonString(&out, target.path);
    out.push_back('}');
    return out;
  }
  if (store == nullptr) {
    *http_status = 503;
    return ErrorBody("no store published yet");
  }
  if (target.error_status != 0) {
    *http_status = target.error_status;
    return ErrorBody(target.error);
  }
  if (local < 0) {
    *http_status = 404;
    return NotFoundBody(target);
  }
  *http_status = 200;
  std::string out;
  const CanonRenderer renderer(*store, target.kind);
  const size_t id = static_cast<size_t>(local);
  switch (target.endpoint) {
    case CanonEndpoint::kLookup:
      renderer.AppendLookupBody(&out, id);
      break;
    case CanonEndpoint::kLink:
      renderer.AppendLinkBody(&out, id);
      break;
    default:
      renderer.AppendClusterBody(&out, id);
      break;
  }
  return out;
}

}  // namespace

int64_t ResolveCanonTarget(const CanonStore& store,
                           const CanonTarget& target) {
  // Cluster targets carry global (monolith) ids; on a shard the global
  // map takes them to the local slot, and ids the shard does not carry
  // resolve to -1 exactly like an out-of-range id on the monolith.
  return target.endpoint == CanonEndpoint::kCluster
             ? store.FindClusterByGlobalId(target.kind, target.cluster_id)
             : store.FindSurface(target.kind, target.surface);
}

std::string HandleCanonRequest(const CanonStore* store,
                               std::string_view method,
                               std::string_view target,
                               const ServeCounters& counters,
                               int* http_status) {
  std::string decode_buffer;
  const CanonTarget parsed = ParseCanonTarget(method, target, &decode_buffer);
  const int64_t local = store != nullptr && parsed.is_data()
                            ? ResolveCanonTarget(*store, parsed)
                            : -1;
  return RenderCanonResponse(store, parsed, local, counters, http_status);
}

CanonServer::CanonServer(ServeOptions options)
    : EventHttpServer(std::move(options)) {
  MetricsRegistry& registry = metrics_registry();
  publishes_ =
      registry.AddCounter("jocl_publishes_total", "", "Store swaps");
  cache_hits_ = registry.AddCounter("jocl_cache_hits_total", "",
                                    "Requests answered from the arena");
  cache_misses_ = registry.AddCounter(
      "jocl_cache_misses_total", "", "Requests rendered by the fallback path");
  published_ = registry.AddGauge("jocl_published", "",
                                 "1 when a store is being served");
  generation_ = registry.AddGauge(
      "jocl_generation", "", "Generation of the served store (-1 before "
                             "the first publish)");
  generation_->Set(-1);
  render_seconds_ = registry.AddHistogram(
      "jocl_publish_render_seconds", "",
      "Time Publish spent pre-rendering the response cache");
  arena_bytes_ = registry.AddGauge(
      "jocl_response_arena_bytes", "",
      "Bytes of pre-rendered responses in the served bundle");
}

CanonServer::~CanonServer() {
  // Must run here, not in the base destructor: event threads dispatch
  // into our virtual HandleRequest until they are joined.
  Stop();
}

void CanonServer::Publish(std::shared_ptr<const CanonStore> store) {
  std::shared_ptr<const ServingBundle> bundle;
  if (store != nullptr) {
    auto fresh = std::make_shared<ServingBundle>();
    fresh->store = std::move(store);
    if (options().prerender) {
      // Rendering happens here, on the publisher thread; readers only
      // ever see the finished bundle through the atomic swap below.
      const uint64_t start_ns = MonotonicNanos();
      fresh->cache = BuildResponseCache(*fresh->store);
      render_seconds_->Record(MonotonicNanos() - start_ns);
      fresh->has_cache = true;
    }
    bundle = std::move(fresh);
  }
  const bool live = bundle != nullptr;
  const int64_t generation = live ? bundle->store->generation : -1;
  const size_t arena_bytes = live ? bundle->cache.arena_bytes() : 0;
  std::atomic_store(&bundle_, std::move(bundle));
  publishes_->Add();
  published_->Set(live ? 1 : 0);
  generation_->Set(generation);
  arena_bytes_->Set(static_cast<int64_t>(arena_bytes));
}

std::shared_ptr<const CanonStore> CanonServer::store() const {
  const std::shared_ptr<const ServingBundle> bundle =
      std::atomic_load(&bundle_);
  return bundle == nullptr ? nullptr : bundle->store;
}

ServeCounters CanonServer::counters() const {
  ServeCounters counters = EventHttpServer::counters();
  counters.publishes = publishes_->Value();
  counters.cache_hits = cache_hits_->Value();
  counters.cache_misses = cache_misses_->Value();
  return counters;
}

void CanonServer::HandleRequest(const RequestHead& /*request*/,
                                const CanonTarget& target,
                                ThreadContext* /*context*/,
                                HttpReply* reply) {
  // /metrics is routed before the resolve step: a scrape must never
  // count as a cache miss (it is not data-path traffic). The server's
  // own registry is followed by the process-global one so a jocl_serve
  // deployment (ingestion + serving in one process) exposes the
  // pipeline mirrors too; the family names are disjoint by
  // construction, so plain concatenation is valid exposition.
  if (target.endpoint == CanonEndpoint::kMetrics &&
      target.error_status == 0) {
    reply->status = 200;
    reply->body = metrics_registry().RenderPrometheus();
    reply->body += MetricsRegistry::Global().RenderPrometheus();
    reply->content_type.assign(kPrometheusContentType);
    return;
  }
  // Pin one bundle for the whole request (RCU read side): body and
  // store generation always come from the same publication.
  const std::shared_ptr<const ServingBundle> bundle =
      std::atomic_load(&bundle_);
  const CanonStore* store = bundle == nullptr ? nullptr : bundle->store.get();
  // Resolve once; the arena and the renderer both answer from the id.
  int64_t local = -1;
  if (store != nullptr && target.is_data()) {
    local = ResolveCanonTarget(*store, target);
    if (local >= 0 && bundle->has_cache) {
      const ResponseCache::Hit hit = bundle->cache.At(
          target.kind, target.endpoint, static_cast<size_t>(local));
      cache_hits_->Add();
      reply->cached_header = hit.header;
      reply->cached_body = hit.body;
      reply->pin = bundle;  // arena views stay valid through the write
      return;
    }
  }
  cache_misses_->Add();
  // Only /stats reads the counter snapshot, and taking one merges every
  // thread-sharded counter cell.
  const ServeCounters snapshot = target.endpoint == CanonEndpoint::kStats
                                     ? counters()
                                     : ServeCounters();
  reply->body =
      RenderCanonResponse(store, target, local, snapshot, &reply->status);
  if (store != nullptr) {
    reply->extra_headers =
        "X-Jocl-Generation: " + std::to_string(store->generation) + "\r\n";
  }
}

}  // namespace jocl

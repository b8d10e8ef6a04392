#include "serve/server.h"

#include <cstdlib>
#include <utility>

#include "serve/http_util.h"
#include "serve/json.h"
#include "serve/render.h"

namespace jocl {
namespace {

const char* KindName(CanonKind kind) {
  return kind == CanonKind::kNp ? "np" : "rp";
}

/// Parses the `kind` parameter; defaults to NP. Returns false on an
/// unknown value.
bool ParseKind(const QueryParams& query, CanonKind* kind) {
  const std::string* value = query.Find("kind");
  if (value == nullptr || *value == "np") {
    *kind = CanonKind::kNp;
    return true;
  }
  if (*value == "rp") {
    *kind = CanonKind::kRp;
    return true;
  }
  return false;
}

std::string HandleLookup(const CanonStore& store, const QueryParams& query,
                         bool link_only, int* http_status) {
  CanonKind kind = CanonKind::kNp;
  if (!ParseKind(query, &kind)) {
    *http_status = 400;
    return ErrorBody("unknown kind (expected np or rp)");
  }
  const std::string* surface = query.Find("surface");
  if (surface == nullptr) {
    *http_status = 400;
    return ErrorBody("missing required parameter 'surface'");
  }
  const int64_t id = store.FindSurface(kind, *surface);
  if (id < 0) {
    *http_status = 404;
    std::string out = "{\"error\":\"surface not found\",\"surface\":";
    AppendJsonString(&out, *surface);
    out.append(",\"kind\":\"");
    out.append(KindName(kind));
    out.append("\"}");
    return out;
  }
  *http_status = 200;
  std::string out;
  const CanonRenderer renderer(store, kind);
  if (link_only) {
    renderer.AppendLinkBody(&out, static_cast<size_t>(id));
  } else {
    renderer.AppendLookupBody(&out, static_cast<size_t>(id));
  }
  return out;
}

std::string HandleCluster(const CanonStore& store, const QueryParams& query,
                          int* http_status) {
  CanonKind kind = CanonKind::kNp;
  if (!ParseKind(query, &kind)) {
    *http_status = 400;
    return ErrorBody("unknown kind (expected np or rp)");
  }
  const std::string* id_text = query.Find("id");
  if (id_text == nullptr || id_text->empty() ||
      id_text->find_first_not_of("0123456789") != std::string::npos) {
    *http_status = 400;
    return ErrorBody("missing or non-numeric parameter 'id'");
  }
  const uint64_t id = std::strtoull(id_text->c_str(), nullptr, 10);
  // The id is a global (monolith) id; on a shard the global map takes it
  // to the local slot, and ids the shard does not carry 404 exactly like
  // an out-of-range id on the monolith.
  const int64_t local = store.FindClusterByGlobalId(kind, id);
  if (local < 0) {
    *http_status = 404;
    return ErrorBody("cluster id out of range");
  }
  *http_status = 200;
  std::string out;
  CanonRenderer(store, kind).AppendClusterBody(&out,
                                               static_cast<size_t>(local));
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

}  // namespace

std::string HandleCanonRequest(const CanonStore* store,
                               std::string_view method,
                               std::string_view target,
                               const ServeCounters& counters,
                               int* http_status) {
  if (method != "GET") {
    *http_status = 405;
    return ErrorBody("method not allowed (GET only)");
  }
  std::string_view path = target;
  std::string_view query_text;
  const size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) {
    path = target.substr(0, qmark);
    query_text = target.substr(qmark + 1);
  }
  if (path == "/stats") {
    return HandleStats(store, counters, http_status);
  }
  if (path != "/lookup" && path != "/cluster" && path != "/link") {
    *http_status = 404;
    std::string out = "{\"error\":\"unknown endpoint\",\"path\":";
    AppendJsonString(&out, path);
    out.push_back('}');
    return out;
  }
  if (store == nullptr) {
    *http_status = 503;
    return ErrorBody("no store published yet");
  }
  const QueryParams query = ParseQuery(query_text);
  if (path == "/cluster") return HandleCluster(*store, query, http_status);
  return HandleLookup(*store, query, /*link_only=*/path == "/link",
                      http_status);
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

void CanonServer::HandleRequest(const RequestHead& request,
                                ThreadContext* /*context*/,
                                HttpReply* reply) {
  // /metrics is routed before the cache probe: a scrape must never
  // count as a cache miss (it is not data-path traffic). The server's
  // own registry is followed by the process-global one so a jocl_serve
  // deployment (ingestion + serving in one process) exposes the
  // pipeline mirrors too; the family names are disjoint by
  // construction, so plain concatenation is valid exposition.
  if (ClassifyTarget(request.target) == Endpoint::kMetrics &&
      request.method == "GET") {
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
  if (bundle != nullptr && bundle->has_cache) {
    char scratch[2048];
    ResponseCache::Hit hit;
    if (bundle->cache.Find(request.method, request.target, scratch,
                           sizeof(scratch), &hit)) {
      cache_hits_->Add();
      reply->cached_header = hit.header;
      reply->cached_body = hit.body;
      reply->pin = bundle;  // arena views stay valid through the write
      return;
    }
  }
  cache_misses_->Add();
  const CanonStore* store = bundle == nullptr ? nullptr : bundle->store.get();
  reply->body = HandleCanonRequest(store, request.method, request.target,
                                   counters(), &reply->status);
  if (store != nullptr) {
    reply->extra_headers =
        "X-Jocl-Generation: " + std::to_string(store->generation) + "\r\n";
  }
}

}  // namespace jocl

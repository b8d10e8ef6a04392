#include "serve/router.h"

#include <utility>

#include "serve/json.h"
#include "serve/shard_store.h"

namespace jocl {

struct CanonRouter::RouterContext : ThreadContext {
  std::vector<HttpConnection> conns;  ///< by shard
  std::vector<int> ports;             ///< port each conn was opened to
};

CanonRouter::CanonRouter(std::vector<int> shard_ports, ServeOptions options)
    : EventHttpServer(std::move(options)) {
  MetricsRegistry& registry = metrics_registry();
  shards_.reserve(shard_ports.size());
  for (size_t k = 0; k < shard_ports.size(); ++k) {
    shards_.push_back(std::make_unique<ShardState>());
    ShardState& state = *shards_.back();
    state.port.store(shard_ports[k], std::memory_order_relaxed);
    const std::string label = "shard=\"" + std::to_string(k) + "\"";
    state.forwarded = registry.AddCounter(
        "jocl_shard_forwarded_total", label, "Backend requests per shard");
    state.retries = registry.AddCounter(
        "jocl_shard_retries_total", label,
        "Backend requests retried on a fresh connection");
    state.failures = registry.AddCounter(
        "jocl_shard_failures_total", label,
        "Backend requests answered 503 after the retry");
    state.port_gauge = registry.AddGauge(
        "jocl_shard_port", label, "Backend port per shard (0 = not up)");
    state.generation_gauge = registry.AddGauge(
        "jocl_shard_generation", label,
        "Last generation observed from the shard (-1 before its first "
        "data response)");
    state.port_gauge->Set(shard_ports[k]);
    state.generation_gauge->Set(-1);
  }
}

CanonRouter::~CanonRouter() {
  // Must run here, not in the base destructor: event threads dispatch
  // into our virtual HandleRequest until they are joined.
  Stop();
}

void CanonRouter::SetShardPort(size_t shard, int port) {
  shards_[shard]->port.store(port, std::memory_order_relaxed);
  shards_[shard]->port_gauge->Set(port);
}

int CanonRouter::shard_port(size_t shard) const {
  return shards_[shard]->port.load(std::memory_order_relaxed);
}

int64_t CanonRouter::shard_generation(size_t shard) const {
  return shards_[shard]->generation.load(std::memory_order_relaxed);
}

std::unique_ptr<EventHttpServer::ThreadContext>
CanonRouter::MakeThreadContext() {
  auto ctx = std::make_unique<RouterContext>();
  ctx->conns.resize(shards_.size());
  ctx->ports.assign(shards_.size(), -1);
  return ctx;
}

bool CanonRouter::Forward(RouterContext* ctx, size_t shard,
                          const std::string& target, HttpResponse* out) {
  ShardState& state = *shards_[shard];
  const int port = state.port.load(std::memory_order_relaxed);
  if (port <= 0) {
    state.failures->Add();
    return false;
  }
  HttpConnection& conn = ctx->conns[shard];
  // Reconnect when the backend moved (recovery publishes a fresh
  // ephemeral port) or the previous request broke the connection.
  if (!conn.connected() || ctx->ports[shard] != port) {
    Result<HttpConnection> fresh =
        HttpConnection::Connect(port, backend_timeout_ms_);
    if (!fresh.ok()) {
      state.failures->Add();
      return false;
    }
    conn = fresh.MoveValueOrDie();
    ctx->ports[shard] = port;
  }
  Result<HttpResponse> got = conn.Get(target);
  if (!got.ok()) {
    // Retry once on a fresh connection: a kept-alive socket dies with
    // its backend process, but the shard may already be back.
    state.retries->Add();
    const int retry_port = state.port.load(std::memory_order_relaxed);
    Result<HttpConnection> fresh =
        HttpConnection::Connect(retry_port, backend_timeout_ms_);
    if (!fresh.ok()) {
      state.failures->Add();
      return false;
    }
    conn = fresh.MoveValueOrDie();
    ctx->ports[shard] = retry_port;
    got = conn.Get(target);
    if (!got.ok()) {
      state.failures->Add();
      return false;
    }
  }
  *out = got.MoveValueOrDie();
  state.forwarded->Add();
  if (out->generation >= 0) {
    state.generation.store(out->generation, std::memory_order_relaxed);
    state.generation_gauge->Set(out->generation);
  }
  return true;
}

void CanonRouter::Relay(HttpResponse response, HttpReply* reply) {
  reply->status = response.status;
  reply->body = std::move(response.body);
  if (response.generation >= 0) {
    reply->extra_headers = "X-Jocl-Generation: " +
                           std::to_string(response.generation) + "\r\n";
  }
}

std::string CanonRouter::StatsJson() const {
  const ServeCounters c = counters();
  std::string out = "{\"router\":true,\"shards\":";
  out.append(std::to_string(shards_.size()));
  out.append(",\"per_shard\":[");
  for (size_t k = 0; k < shards_.size(); ++k) {
    const ShardState& s = *shards_[k];
    if (k > 0) out.push_back(',');
    out.append("{\"port\":");
    out.append(std::to_string(s.port.load(std::memory_order_relaxed)));
    out.append(",\"generation\":");
    out.append(
        std::to_string(s.generation.load(std::memory_order_relaxed)));
    out.append(",\"forwarded\":");
    out.append(std::to_string(s.forwarded->Value()));
    out.append(",\"retries\":");
    out.append(std::to_string(s.retries->Value()));
    out.append(",\"failures\":");
    out.append(std::to_string(s.failures->Value()));
    out.push_back('}');
  }
  out.append("],\"requests\":");
  out.append(std::to_string(c.requests));
  out.append(",\"scrapes\":");
  out.append(std::to_string(c.scrapes));
  out.append(",\"ok\":");
  out.append(std::to_string(c.ok));
  out.append(",\"not_found\":");
  out.append(std::to_string(c.not_found));
  out.append(",\"bad_request\":");
  out.append(std::to_string(c.bad_request));
  out.append(",\"unavailable\":");
  out.append(std::to_string(c.unavailable));
  out.append(",\"events\":{\"accepted\":");
  out.append(std::to_string(c.connections_accepted));
  out.append(",\"reused\":");
  out.append(std::to_string(c.connections_reused));
  out.append(",\"timed_out\":");
  out.append(std::to_string(c.connections_timed_out));
  out.append(",\"writev_bytes\":");
  out.append(std::to_string(c.writev_bytes));
  out.append("}}");
  return out;
}

void CanonRouter::AggregatedMetrics(RouterContext* ctx, HttpReply* reply) {
  PrometheusAggregator aggregator;
  aggregator.AddText(metrics_registry().RenderPrometheus(), "");
  for (size_t k = 0; k < shards_.size(); ++k) {
    HttpResponse response;
    // A down shard is skipped, not an error: the aggregate stays useful
    // through a republish, and jocl_shard_port{shard="k"} shows the gap.
    if (!Forward(ctx, k, "/metrics", &response)) continue;
    if (response.status != 200) continue;
    aggregator.AddText(response.body,
                       "shard=\"" + std::to_string(k) + "\"");
  }
  reply->status = 200;
  reply->body = aggregator.Render();
  reply->content_type.assign(kPrometheusContentType);
}

void CanonRouter::HandleRequest(const RequestHead& request,
                                const CanonTarget& target,
                                ThreadContext* context, HttpReply* reply) {
  RouterContext* ctx = static_cast<RouterContext*>(context);
  if (target.error_status == 405) {
    reply->status = 405;
    reply->body = ErrorBody(target.error);
    return;
  }
  if (target.endpoint == CanonEndpoint::kStats) {
    reply->status = 200;
    reply->body = StatsJson();
    return;
  }
  if (target.endpoint == CanonEndpoint::kMetrics) {
    AggregatedMetrics(ctx, reply);
    return;
  }
  const std::string raw_target(request.target);
  if (target.endpoint == CanonEndpoint::kCluster) {
    // Broadcast: the owner of any member carries the cluster, so the
    // first non-404 answer is authoritative; ids nobody carries 404
    // with the monolith's exact body on every shard. Each relayed body
    // comes from exactly one shard — never merged.
    HttpResponse last;
    bool have_last = false;
    bool any_down = false;
    for (size_t k = 0; k < shards_.size(); ++k) {
      HttpResponse response;
      if (!Forward(ctx, k, raw_target, &response)) {
        any_down = true;
        continue;
      }
      if (response.status != 404) {
        Relay(std::move(response), reply);
        return;
      }
      last = std::move(response);
      have_last = true;
    }
    if (any_down || !have_last) {
      reply->status = 503;
      reply->body = ErrorBody("one or more shards unavailable");
      return;
    }
    Relay(std::move(last), reply);
    return;
  }
  if (target.endpoint == CanonEndpoint::kOther) {
    reply->status = 404;
    reply->body = "{\"error\":\"unknown endpoint\",\"path\":";
    AppendJsonString(&reply->body, target.path);
    reply->body.push_back('}');
    return;
  }
  // Without a surface there is no shard to choose: answer the parse's
  // own 400, the one every shard would give.
  if (!target.has_surface) {
    reply->status = target.error_status;
    reply->body = ErrorBody(target.error);
    return;
  }
  const uint32_t shard =
      ShardOfSurface(target.surface, static_cast<uint32_t>(shards_.size()));
  HttpResponse response;
  if (!Forward(ctx, shard, raw_target, &response)) {
    reply->status = 503;
    reply->body =
        ErrorBody("shard " + std::to_string(shard) + " unavailable");
    return;
  }
  Relay(std::move(response), reply);
}

}  // namespace jocl

#include "serve/response_cache.h"

#include <algorithm>

#include "serve/http_util.h"
#include "serve/render.h"

namespace jocl {

int64_t ResponseCache::FindSurfaceId(const KindCache& kind,
                                     std::string_view surface) const {
  const auto it = std::lower_bound(kind.surface_keys.begin(),
                                   kind.surface_keys.end(), surface, SvLess{});
  if (it == kind.surface_keys.end() || *it != surface) return -1;
  return kind.surface_ids[static_cast<size_t>(it - kind.surface_keys.begin())];
}

bool ResponseCache::Find(std::string_view method, std::string_view target,
                         char* scratch, size_t scratch_cap, Hit* hit) const {
  if (arena_.empty() || method != "GET") return false;
  std::string_view path = target;
  std::string_view query;
  const size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }
  enum class Role { kLookup, kLink, kCluster };
  Role role;
  if (path == "/lookup") {
    role = Role::kLookup;
  } else if (path == "/link") {
    role = Role::kLink;
  } else if (path == "/cluster") {
    role = Role::kCluster;
  } else {
    return false;  // /stats and unknown paths are never cached
  }

  std::string_view raw_kind;
  CanonKind kind = CanonKind::kNp;
  switch (FindQueryValue(query, "kind", &raw_kind)) {
    case QueryScan::kNeedsFallback:
      return false;
    case QueryScan::kMissing:
      break;
    case QueryScan::kFound: {
      char kind_buf[8];
      std::string_view decoded;
      if (!UrlDecodeInto(raw_kind, kind_buf, sizeof(kind_buf), &decoded)) {
        return false;
      }
      if (decoded == "np") {
        kind = CanonKind::kNp;
      } else if (decoded == "rp") {
        kind = CanonKind::kRp;
      } else {
        return false;  // fallback renders the 400
      }
      break;
    }
  }
  const KindCache& kc = kinds_[static_cast<size_t>(kind)];

  const Slice* slice = nullptr;
  if (role == Role::kCluster) {
    std::string_view raw_id;
    if (FindQueryValue(query, "id", &raw_id) != QueryScan::kFound ||
        raw_id.empty() ||
        raw_id.find_first_not_of("0123456789") != std::string_view::npos) {
      return false;
    }
    uint64_t id = 0;
    for (char c : raw_id) {
      id = id * 10 + static_cast<uint64_t>(c - '0');
      if (id > 0xffffffffull) return false;  // fallback renders the 404
    }
    // Targets carry global ids; on a shard the global map takes them to
    // the local slice index.
    const int64_t local =
        store_->FindClusterByGlobalId(kind, id);
    if (local < 0 || static_cast<size_t>(local) >= kc.cluster.size()) {
      return false;  // fallback renders the 404
    }
    slice = &kc.cluster[static_cast<size_t>(local)];
  } else {
    std::string_view raw_surface;
    if (FindQueryValue(query, "surface", &raw_surface) != QueryScan::kFound) {
      return false;
    }
    std::string_view surface;
    if (!UrlDecodeInto(raw_surface, scratch, scratch_cap, &surface)) {
      return false;
    }
    const int64_t id = FindSurfaceId(kc, surface);
    if (id < 0) return false;  // unknown surface: fallback renders the 404
    slice = role == Role::kLookup
                ? &kc.lookup[static_cast<size_t>(id)]
                : &kc.link[static_cast<size_t>(id)];
  }
  *hit = Materialize(*slice);
  return true;
}

ResponseCache BuildResponseCache(const CanonStore& store) {
  ResponseCache cache;
  cache.store_ = &store;
  std::string& arena = cache.arena_;
  std::string generation_line = "\r\nX-Jocl-Generation: ";
  AppendDecimal(&generation_line, static_cast<int64_t>(store.generation));
  generation_line.append("\r\n");
  std::string body;
  // Moves `body` into the arena behind the head every hot response
  // shares: status line, fixed headers, Content-Length and the store's
  // generation, stopping before the Connection line, which the event
  // loop adds per request.
  auto add = [&](ResponseCache::Slice* slice) {
    slice->offset = arena.size();
    arena.append("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                 "Content-Length: ");
    AppendDecimal(&arena, static_cast<int64_t>(body.size()));
    arena.append(generation_line);
    slice->header_len = static_cast<uint32_t>(arena.size() - slice->offset);
    arena.append(body);
    slice->body_len = static_cast<uint32_t>(body.size());
    body.clear();
  };
  for (CanonKind kind : {CanonKind::kNp, CanonKind::kRp}) {
    const CanonSection& section = store.section(kind);
    ResponseCache::KindCache& kc =
        cache.kinds_[static_cast<size_t>(kind)];
    kc.surface_ids = section.surface_order;
    kc.surface_keys.reserve(kc.surface_ids.size());
    for (uint32_t surface : kc.surface_ids) {
      kc.surface_keys.push_back(store.SurfaceText(kind, surface));
    }
    kc.lookup.resize(section.surface_count());
    kc.link.resize(section.surface_count());
    kc.cluster.resize(section.cluster_count());

    // Every surface string and cluster object is rendered once here;
    // the bodies below only copy them.
    CanonRenderer renderer(store, kind);
    renderer.RenderFragments();
    for (size_t s = 0; s < section.surface_count(); ++s) {
      renderer.AppendLookupBody(&body, s);
      add(&kc.lookup[s]);
      renderer.AppendLinkBody(&body, s);
      add(&kc.link[s]);
    }
    for (size_t c = 0; c < section.cluster_count(); ++c) {
      renderer.AppendClusterBody(&body, c);
      add(&kc.cluster[c]);
    }
  }
  return cache;
}

}  // namespace jocl

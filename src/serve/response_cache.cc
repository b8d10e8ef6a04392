#include "serve/response_cache.h"

#include "serve/render.h"

namespace jocl {

ResponseCache BuildResponseCache(const CanonStore& store) {
  ResponseCache cache;
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
    auto& slices = cache.slices_[static_cast<size_t>(kind)];
    auto& lookup = slices[static_cast<size_t>(CanonEndpoint::kLookup)];
    auto& link = slices[static_cast<size_t>(CanonEndpoint::kLink)];
    auto& cluster = slices[static_cast<size_t>(CanonEndpoint::kCluster)];
    lookup.resize(section.surface_count());
    link.resize(section.surface_count());
    cluster.resize(section.cluster_count());

    // Every surface string and cluster object is rendered once here;
    // the bodies below only copy them.
    CanonRenderer renderer(store, kind);
    renderer.RenderFragments();
    for (size_t s = 0; s < section.surface_count(); ++s) {
      renderer.AppendLookupBody(&body, s);
      add(&lookup[s]);
      renderer.AppendLinkBody(&body, s);
      add(&link[s]);
    }
    for (size_t c = 0; c < section.cluster_count(); ++c) {
      renderer.AppendClusterBody(&body, c);
      add(&cluster[c]);
    }
  }
  return cache;
}

}  // namespace jocl

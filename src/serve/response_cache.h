#ifndef JOCL_SERVE_RESPONSE_CACHE_H_
#define JOCL_SERVE_RESPONSE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/canon_store.h"
#include "serve/http_util.h"

namespace jocl {

/// \brief Pre-rendered HTTP responses for every hot endpoint of one
/// CanonStore generation — the serving hot path's answer arena.
///
/// Built alongside the store by `BuildResponseCache`: for every surface
/// of each kind the full `/lookup` and `/link` responses, and for every
/// cluster the `/cluster` response, rendered once into a flat arena.
/// Each entry stores the complete status line + headers (without the
/// final `Connection:` line, which the event loop injects per request)
/// followed by the body. Entries are indexed by the store-local id that
/// `ResolveCanonTarget` (serve/server.h) returns, so answering a request
/// is parse → resolve → `writev` — zero JSON work, zero allocation.
///
/// Bodies are written by the same renderer the fallback path uses
/// (`CanonRenderer`, serve/render.h), so a cached response is
/// byte-identical to a freshly rendered one for the same store
/// generation. The build renders each surface string and each cluster
/// object once and copies them into every body that embeds them. An id
/// means something only against the store the cache was built from:
/// `ServingBundle` couples the two and the server swaps the bundle under
/// one RCU pointer, so a reader can never pair a cached body with a
/// mismatched generation.
class ResponseCache {
 public:
  /// A cached response: views into the arena, valid as long as the cache.
  struct Hit {
    std::string_view header;  ///< status line + headers, through the
                              ///< CRLF after Content-Length (no blank line)
    std::string_view body;
  };

  /// The response to a `/lookup`, `/link` or `/cluster` (\p endpoint)
  /// request for store-local surface or cluster \p local_id of \p kind.
  Hit At(CanonKind kind, CanonEndpoint endpoint, size_t local_id) const {
    const Slice& slice = slices_[static_cast<size_t>(kind)]
                                [static_cast<size_t>(endpoint)][local_id];
    return Hit{std::string_view(arena_.data() + slice.offset,
                                slice.header_len),
               std::string_view(arena_.data() + slice.offset +
                                    slice.header_len,
                                slice.body_len)};
  }

  bool empty() const { return arena_.empty(); }
  size_t arena_bytes() const { return arena_.size(); }
  size_t entry_count() const {
    size_t n = 0;
    for (const auto& by_endpoint : slices_) {
      for (const std::vector<Slice>& slices : by_endpoint) n += slices.size();
    }
    return n;
  }

 private:
  friend ResponseCache BuildResponseCache(const CanonStore& store);

  /// Offsets of one pre-rendered response inside the arena.
  struct Slice {
    uint64_t offset = 0;
    uint32_t header_len = 0;
    uint32_t body_len = 0;
  };

  std::string arena_;
  /// [kind][endpoint]: by surface id for `/lookup` and `/link`, by
  /// cluster id for `/cluster`.
  std::vector<Slice> slices_[2][3];
};

/// \brief Renders the hot-endpoint responses of \p store into a fresh
/// cache. Deterministic. Cost: one escape pass over the store's text,
/// then a copy per entry; the arena (and so the copy) grows with the sum
/// of squared cluster sizes, because every member's `/lookup` body embeds
/// its cluster. Paid on the publisher thread, never by readers.
ResponseCache BuildResponseCache(const CanonStore& store);

/// \brief One RCU publication unit: the store and the responses
/// pre-rendered from it. `CanonServer::Publish` swaps a whole bundle
/// atomically, which is what makes the cached path generation-safe.
struct ServingBundle {
  std::shared_ptr<const CanonStore> store;
  ResponseCache cache;       ///< empty when pre-rendering is disabled
  bool has_cache = false;
};

}  // namespace jocl

#endif  // JOCL_SERVE_RESPONSE_CACHE_H_

#ifndef JOCL_SERVE_RESPONSE_CACHE_H_
#define JOCL_SERVE_RESPONSE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/canon_store.h"

namespace jocl {

/// \brief Transparent `string_view` comparator — the flat-map idiom
/// (SNIPPETS.md §1): one ordering functor serves owned strings, views
/// and raw bytes alike, so lookups never materialize a key.
struct SvLess {
  using is_transparent = void;
  bool operator()(std::string_view lhs, std::string_view rhs) const noexcept {
    return lhs < rhs;
  }
};

/// \brief Pre-rendered HTTP responses for every hot endpoint of one
/// CanonStore generation — the serving hot path's answer arena.
///
/// Built alongside the store by `BuildResponseCache`: for every surface
/// of each kind the full `/lookup` and `/link` responses, and for every
/// cluster the `/cluster` response, rendered once into a flat arena.
/// Each entry stores the complete status line + headers (without the
/// final `Connection:` line, which the event loop injects per request)
/// followed by the body, so answering a request is
/// parse → binary-search → `writev` — zero JSON work, zero allocation.
///
/// Bodies are written by the same renderer the fallback path uses
/// (`CanonRenderer`, serve/render.h), so a cached response is
/// byte-identical to a freshly rendered one for the same store
/// generation. The build renders each surface string and each cluster
/// object once and copies them into every body that embeds them. The cache
/// references the store's text pool for its key index; it must not
/// outlive the store it was built from — `ServingBundle` couples the
/// two lifetimes and the server swaps the bundle under one RCU pointer
/// so a reader can never pair a cached body with a mismatched
/// generation.
class ResponseCache {
 public:
  /// A cache hit: views into the arena, valid as long as the cache.
  struct Hit {
    std::string_view header;  ///< status line + headers, through the
                              ///< CRLF after Content-Length (no blank line)
    std::string_view body;
  };

  /// Zero-allocation hot-path lookup. \p target is the raw request
  /// target (`/lookup?surface=...`); percent-escapes decode into
  /// \p scratch. Returns true and fills \p hit only for an exact,
  /// unambiguous cache hit; every other case (unknown surface, bad
  /// parameter, `/stats`, exotic encodings, scratch overflow) returns
  /// false and the caller renders through the fallback path.
  bool Find(std::string_view method, std::string_view target, char* scratch,
            size_t scratch_cap, Hit* hit) const;

  bool empty() const { return arena_.empty(); }
  size_t arena_bytes() const { return arena_.size(); }
  size_t entry_count() const {
    size_t n = 0;
    for (const KindCache& k : kinds_) {
      n += k.lookup.size() + k.link.size() + k.cluster.size();
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

  struct KindCache {
    /// Surface bytes (views into the store's text pool), sorted — the
    /// flat-map side of the SvLess idiom; parallel to surface_ids.
    std::vector<std::string_view> surface_keys;
    std::vector<uint32_t> surface_ids;
    std::vector<Slice> lookup;   ///< by surface id
    std::vector<Slice> link;     ///< by surface id
    std::vector<Slice> cluster;  ///< by cluster id
  };

  Hit Materialize(const Slice& slice) const {
    return Hit{std::string_view(arena_.data() + slice.offset,
                                slice.header_len),
               std::string_view(arena_.data() + slice.offset +
                                    slice.header_len,
                                slice.body_len)};
  }

  /// -1 when the surface is not in this generation.
  int64_t FindSurfaceId(const KindCache& kind, std::string_view surface) const;

  std::string arena_;
  KindCache kinds_[2];  ///< indexed by CanonKind
  /// The store the cache was rendered from (global→local cluster id
  /// mapping on the hot path). Same lifetime rule as the arena's key
  /// views: the bundle keeps store and cache together.
  const CanonStore* store_ = nullptr;
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

#ifndef JOCL_SERVE_CANON_STORE_H_
#define JOCL_SERVE_CANON_STORE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/jocl.h"
#include "core/problem.h"
#include "kb/curated_kb.h"
#include "util/result.h"

namespace jocl {

/// \brief A borrowed contiguous view into a store arena (the serving
/// layer's zero-allocation answer type).
template <typename T>
struct ConstSpan {
  const T* ptr = nullptr;
  size_t count = 0;

  const T* begin() const { return ptr; }
  const T* end() const { return ptr + count; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  const T& operator[](size_t i) const { return ptr[i]; }
};

/// \brief Which of the store's two phrase spaces a query addresses.
enum class CanonKind : uint32_t { kNp = 0, kRp = 1 };

/// \brief One phrase space of a CanonStore (NP or RP): interned surfaces
/// with a sorted lookup index, cluster membership in CSR layout (the
/// `FactorGraph` idiom), and one canonical link per cluster.
///
/// All ids are section-local and dense: surfaces `[0, surface_count)` in
/// first-appearance order, clusters `[0, cluster_count)` in
/// first-appearance order over surfaces. Every field is a flat vector of
/// POD — the snapshot format serializes them verbatim.
struct CanonSection {
  /// String id (into the store's text pool) per surface.
  std::vector<uint32_t> surface_text;
  /// Surface ids sorted by surface bytes — the binary-search index.
  std::vector<uint32_t> surface_order;
  /// Mentions of each surface in the covered triples.
  std::vector<uint64_t> surface_mentions;
  /// CSR surface -> cluster ids (one entry per surface in practice; the
  /// layout does not assume it).
  std::vector<uint64_t> surface_cluster_offset;  ///< [surface_count + 1]
  std::vector<uint32_t> surface_clusters;
  /// CSR cluster -> member surface ids, ascending.
  std::vector<uint64_t> cluster_member_offset;   ///< [cluster_count + 1]
  std::vector<uint32_t> cluster_members;
  /// Canonical CKB link per cluster (entity for NP, relation for RP;
  /// kNilId when every member mention decoded to NIL). Majority vote over
  /// member mentions, ties to the smaller id.
  std::vector<int64_t> cluster_link;
  /// String id of the linked entity/relation's canonical name; -1 for NIL.
  std::vector<int64_t> cluster_link_name;
  /// Member mentions that voted for the winning link.
  std::vector<uint64_t> cluster_link_votes;

  /// Shard stores only (`BuildShardedCanonStores`): the monolith surface
  /// id of each local surface, strictly ascending. Empty on a monolith
  /// store, which means the identity mapping — responses always speak
  /// global ids, so a shard's JSON is byte-identical to the monolith's.
  std::vector<uint32_t> surface_global;
  /// Monolith cluster id of each local cluster, strictly ascending;
  /// empty = identity (monolith store).
  std::vector<uint32_t> cluster_global;

  size_t surface_count() const { return surface_text.size(); }
  size_t cluster_count() const { return cluster_link.size(); }
};

/// \brief Immutable, flat-storage index over one `JoclResult` — the
/// serving layer's unit of publication.
///
/// Downstream consumers ask three questions of a canonicalized KB: which
/// cluster is this surface form in, who else is in it, and which curated
/// entity/relation does it link to. The store answers all three with
/// nothing but binary search and offset arithmetic: every lookup is
/// O(log n) or O(1) and allocation-free, so a snapshot can serve a hot
/// read path directly (`CanonServer`) or be queried in process
/// (`examples/kb_serving.cpp`).
///
/// Built once by `BuildCanonStore`; never mutated afterwards. Readers may
/// share a store across threads freely.
struct CanonStore {
  /// All interned strings, concatenated; string i is
  /// `text_pool[text_offset[i] .. text_offset[i+1])`.
  std::vector<char> text_pool;
  std::vector<uint64_t> text_offset;  ///< [string_count + 1]

  CanonSection np;
  CanonSection rp;

  /// Triples the underlying result covered.
  uint64_t triple_count = 0;
  /// Publication stamp (the session batch that produced the store).
  uint64_t generation = 0;
  /// Shard identity (`BuildShardedCanonStores`): this store holds the
  /// surfaces whose FNV-1a hash lands on `shard_index` of `shard_count`.
  /// A monolith store has shard_count == 0.
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;

  size_t string_count() const {
    return text_offset.empty() ? 0 : text_offset.size() - 1;
  }

  /// String by id; empty view for negative ids (the NIL link name).
  std::string_view Text(int64_t string_id) const {
    if (string_id < 0) return {};
    const size_t i = static_cast<size_t>(string_id);
    return std::string_view(text_pool.data() + text_offset[i],
                            text_offset[i + 1] - text_offset[i]);
  }

  const CanonSection& section(CanonKind kind) const {
    return kind == CanonKind::kNp ? np : rp;
  }

  /// Surface id of the exact surface form, or -1. O(log n), zero
  /// allocation (byte-wise binary search over the sorted index).
  int64_t FindSurface(CanonKind kind, std::string_view surface) const;

  std::string_view SurfaceText(CanonKind kind, size_t surface) const {
    return Text(section(kind).surface_text[surface]);
  }

  uint64_t MentionCount(CanonKind kind, size_t surface) const {
    return section(kind).surface_mentions[surface];
  }

  /// Clusters the surface's mentions belong to (one in practice).
  ConstSpan<uint32_t> ClustersOf(CanonKind kind, size_t surface) const {
    const CanonSection& s = section(kind);
    const uint64_t begin = s.surface_cluster_offset[surface];
    const uint64_t end = s.surface_cluster_offset[surface + 1];
    return {s.surface_clusters.data() + begin, end - begin};
  }

  /// Member surface ids of a cluster, ascending.
  ConstSpan<uint32_t> ClusterMembers(CanonKind kind, size_t cluster) const {
    const CanonSection& s = section(kind);
    const uint64_t begin = s.cluster_member_offset[cluster];
    const uint64_t end = s.cluster_member_offset[cluster + 1];
    return {s.cluster_members.data() + begin, end - begin};
  }

  /// Canonical CKB id the cluster links to (kNilId possible).
  int64_t ClusterLink(CanonKind kind, size_t cluster) const {
    return section(kind).cluster_link[cluster];
  }

  /// Canonical name of the cluster's link; empty for NIL.
  std::string_view ClusterLinkName(CanonKind kind, size_t cluster) const {
    return Text(section(kind).cluster_link_name[cluster]);
  }

  /// Monolith id of a local surface (identity on a monolith store).
  /// Responses always print global ids, so shard and monolith stores
  /// render byte-identical JSON for the same surface.
  uint32_t GlobalSurfaceId(CanonKind kind, size_t surface) const {
    const CanonSection& s = section(kind);
    return s.surface_global.empty() ? static_cast<uint32_t>(surface)
                                    : s.surface_global[surface];
  }

  /// Monolith id of a local cluster (identity on a monolith store).
  uint32_t GlobalClusterId(CanonKind kind, size_t cluster) const {
    const CanonSection& s = section(kind);
    return s.cluster_global.empty() ? static_cast<uint32_t>(cluster)
                                    : s.cluster_global[cluster];
  }

  /// Local cluster id for a monolith cluster id, or -1 when this store
  /// does not carry the cluster. O(log n) (the global map is ascending).
  int64_t FindClusterByGlobalId(CanonKind kind, uint64_t global_id) const;
};

/// \brief Build-time interner into a store's text pool: the first
/// appearance of a text assigns its string id. Keys are views of the
/// interned text as the caller holds it, so every interned text must
/// outlive the interner; the finished store carries no hash map.
class TextInterner {
 public:
  /// Resets \p store's pool to empty.
  explicit TextInterner(CanonStore* store);

  /// String id of \p text, appending it to the pool on first sight.
  int64_t Intern(std::string_view text);

 private:
  CanonStore* store_;
  std::unordered_map<std::string_view, int64_t> ids_;
};

/// \brief Builds the immutable serving index over a decoded result.
///
/// \p problem and \p result must describe the same triple set (the
/// problem the result was decoded from — `JoclSession::problem()` /
/// `JoclSession::result()`, or a fresh `BuildProblem` over the same
/// subset for one-shot runs). \p ckb resolves link ids to canonical
/// names. Deterministic: the same inputs produce a byte-identical store.
///
/// Cost: one hash per distinct surface text and per link name, then flat
/// arrays over section surface ids for the mentions; the link vote sorts
/// the linked mentions by (cluster, link).
CanonStore BuildCanonStore(const JoclProblem& problem,
                           const JoclResult& result, const CuratedKb& ckb,
                           uint64_t generation = 0);

/// \brief Structural invariants of a store (offset monotonicity, id
/// ranges, a surface index that is a permutation sorted by text).
/// `LoadSnapshot` runs this so a corrupted-but-checksummed file can never
/// index out of bounds or miss a surface it holds.
Status ValidateCanonStore(const CanonStore& store);

}  // namespace jocl

#endif  // JOCL_SERVE_CANON_STORE_H_

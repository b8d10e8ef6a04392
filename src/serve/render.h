#ifndef JOCL_SERVE_RENDER_H_
#define JOCL_SERVE_RENDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/canon_store.h"

namespace jocl {

/// \brief Appends the decimal digits of \p value (no allocation).
void AppendDecimal(std::string* out, int64_t value);

/// \brief The 200 bodies of the data endpoints (`/lookup`, `/link`,
/// `/cluster`) over one section of a store: the one place their JSON
/// format is written. Internal to the serving layer.
///
/// Every body is assembled from three fragments: a surface's JSON
/// string, a cluster's object (members included) and its link's object,
/// which is the tail of the cluster object. The fallback path
/// (`HandleCanonRequest`) renders the fragments a body needs as it goes.
/// `BuildResponseCache` first calls `RenderFragments`, which renders
/// every fragment of the section once; each body then copies them, so
/// a cluster of n members is escaped once per generation instead of
/// once per member's `/lookup` body. Both ways give the same bytes.
///
/// Surface and cluster ids in bodies are global (monolith) ids, so a
/// shard store renders the same bytes as the monolith. The renderer
/// borrows \p store, which must outlive it.
class CanonRenderer {
 public:
  CanonRenderer(const CanonStore& store, CanonKind kind)
      : store_(store), kind_(kind) {}

  /// Renders every surface string and cluster object of the section
  /// once; the body writers copy them from then on.
  void RenderFragments();

  /// `{"surface":S,"kind":K,"surface_id":N,"mentions":M,"clusters":[...]}`
  void AppendLookupBody(std::string* out, size_t surface) const;
  /// `{"surface":S,"kind":K,"surface_id":N,"link":L}`; the link of the
  /// surface's first cluster, `null` when it has none.
  void AppendLinkBody(std::string* out, size_t surface) const;
  /// `{"kind":K,"cluster":C}`
  void AppendClusterBody(std::string* out, size_t cluster) const;

 private:
  /// The fragment writers: render, or copy once `RenderFragments` ran.
  void AppendSurface(std::string* out, size_t surface) const;
  void AppendCluster(std::string* out, size_t cluster) const;
  void AppendLink(std::string* out, size_t cluster) const;
  /// `{"id":N,"size":n,"members":[...],"link":L}`; sets \p link_at to
  /// the offset in \p out where L starts.
  void RenderCluster(std::string* out, size_t cluster, size_t* link_at) const;
  /// `null`, or `{"id":N,"name":S,"votes":v}`.
  void RenderLink(std::string* out, size_t cluster) const;

  const CanonStore& store_;
  CanonKind kind_;
  /// Rendered fragments (empty until `RenderFragments`): surface s is
  /// `surfaces_[surface_at_[s] .. surface_at_[s + 1])`, cluster c is
  /// `clusters_[cluster_at_[c] .. cluster_at_[c + 1])`, and its link
  /// starts at `link_at_[c]` and ends one byte (the closing brace)
  /// before the cluster does.
  std::string surfaces_;
  std::string clusters_;
  std::vector<size_t> surface_at_;
  std::vector<size_t> cluster_at_;
  std::vector<size_t> link_at_;
};

}  // namespace jocl

#endif  // JOCL_SERVE_RENDER_H_

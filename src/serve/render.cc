#include "serve/render.h"

#include <charconv>

#include "serve/json.h"
#include "util/ids.h"

namespace jocl {
namespace {

std::string_view KindJson(CanonKind kind) {
  return kind == CanonKind::kNp ? "\"np\"" : "\"rp\"";
}

}  // namespace

void AppendDecimal(std::string* out, int64_t value) {
  char digits[24];
  const std::to_chars_result end =
      std::to_chars(digits, digits + sizeof(digits), value);
  out->append(digits, static_cast<size_t>(end.ptr - digits));
}

void CanonRenderer::RenderFragments() {
  const CanonSection& section = store_.section(kind_);
  const size_t ns = section.surface_count();
  const size_t nc = section.cluster_count();
  surfaces_.clear();
  clusters_.clear();
  surface_at_.assign(1, 0);
  cluster_at_.assign(1, 0);
  link_at_.clear();
  surface_at_.reserve(ns + 1);
  cluster_at_.reserve(nc + 1);
  link_at_.reserve(nc);
  for (size_t s = 0; s < ns; ++s) {
    AppendJsonString(&surfaces_, store_.SurfaceText(kind_, s));
    surface_at_.push_back(surfaces_.size());
  }
  // Cluster objects copy the member strings rendered above.
  for (size_t c = 0; c < nc; ++c) {
    size_t link_at = 0;
    RenderCluster(&clusters_, c, &link_at);
    link_at_.push_back(link_at);
    cluster_at_.push_back(clusters_.size());
  }
}

void CanonRenderer::AppendSurface(std::string* out, size_t surface) const {
  if (surface_at_.empty()) {
    AppendJsonString(out, store_.SurfaceText(kind_, surface));
    return;
  }
  out->append(surfaces_, surface_at_[surface],
              surface_at_[surface + 1] - surface_at_[surface]);
}

void CanonRenderer::AppendCluster(std::string* out, size_t cluster) const {
  if (cluster_at_.empty()) {
    size_t link_at = 0;
    RenderCluster(out, cluster, &link_at);
    return;
  }
  out->append(clusters_, cluster_at_[cluster],
              cluster_at_[cluster + 1] - cluster_at_[cluster]);
}

void CanonRenderer::AppendLink(std::string* out, size_t cluster) const {
  if (cluster_at_.empty()) {
    RenderLink(out, cluster);
    return;
  }
  out->append(clusters_, link_at_[cluster],
              cluster_at_[cluster + 1] - 1 - link_at_[cluster]);
}

void CanonRenderer::RenderCluster(std::string* out, size_t cluster,
                                  size_t* link_at) const {
  const ConstSpan<uint32_t> members = store_.ClusterMembers(kind_, cluster);
  out->append("{\"id\":");
  AppendDecimal(out, store_.GlobalClusterId(kind_, cluster));
  out->append(",\"size\":");
  AppendDecimal(out, static_cast<int64_t>(members.size()));
  out->append(",\"members\":[");
  for (size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendSurface(out, members[i]);
  }
  out->append("],\"link\":");
  *link_at = out->size();
  RenderLink(out, cluster);
  out->push_back('}');
}

void CanonRenderer::RenderLink(std::string* out, size_t cluster) const {
  const int64_t link = store_.ClusterLink(kind_, cluster);
  if (link == kNilId) {
    out->append("null");
    return;
  }
  out->append("{\"id\":");
  AppendDecimal(out, link);
  out->append(",\"name\":");
  AppendJsonString(out, store_.ClusterLinkName(kind_, cluster));
  out->append(",\"votes\":");
  AppendDecimal(out, static_cast<int64_t>(
                         store_.section(kind_).cluster_link_votes[cluster]));
  out->push_back('}');
}

void CanonRenderer::AppendLookupBody(std::string* out, size_t surface) const {
  out->append("{\"surface\":");
  AppendSurface(out, surface);
  out->append(",\"kind\":");
  out->append(KindJson(kind_));
  out->append(",\"surface_id\":");
  AppendDecimal(out, store_.GlobalSurfaceId(kind_, surface));
  out->append(",\"mentions\":");
  AppendDecimal(out,
                static_cast<int64_t>(store_.MentionCount(kind_, surface)));
  out->append(",\"clusters\":[");
  const ConstSpan<uint32_t> clusters = store_.ClustersOf(kind_, surface);
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendCluster(out, clusters[i]);
  }
  out->append("]}");
}

void CanonRenderer::AppendLinkBody(std::string* out, size_t surface) const {
  out->append("{\"surface\":");
  AppendSurface(out, surface);
  out->append(",\"kind\":");
  out->append(KindJson(kind_));
  out->append(",\"surface_id\":");
  AppendDecimal(out, store_.GlobalSurfaceId(kind_, surface));
  out->append(",\"link\":");
  const ConstSpan<uint32_t> clusters = store_.ClustersOf(kind_, surface);
  if (clusters.empty()) {
    out->append("null");
  } else {
    AppendLink(out, clusters[0]);
  }
  out->push_back('}');
}

void CanonRenderer::AppendClusterBody(std::string* out,
                                      size_t cluster) const {
  out->append("{\"kind\":");
  out->append(KindJson(kind_));
  out->append(",\"cluster\":");
  AppendCluster(out, cluster);
  out->push_back('}');
}

}  // namespace jocl

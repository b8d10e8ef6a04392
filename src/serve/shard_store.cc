#include "serve/shard_store.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "serve/snapshot_io.h"

namespace jocl {
namespace {

Status MergeError(const std::string& what) {
  return Status::InvalidArgument("shard merge: " + what);
}

/// Extracts shard k of one section: owned surfaces (by hash) plus the
/// full membership of every cluster an owned surface touches, all in
/// ascending monolith-id order so the global maps stay sorted.
void BuildShardSection(const CanonStore& monolith, CanonKind kind,
                       uint32_t shard, uint32_t num_shards,
                       TextInterner* intern, CanonSection* out) {
  const CanonSection& s = monolith.section(kind);
  const size_t ns = s.surface_count();
  const size_t nc = s.cluster_count();
  std::vector<char> needed(nc, 0);
  std::vector<char> included(ns, 0);
  for (size_t g = 0; g < ns; ++g) {
    if (ShardOfSurface(monolith.SurfaceText(kind, g), num_shards) != shard) {
      continue;
    }
    included[g] = 1;
    for (uint32_t c : monolith.ClustersOf(kind, g)) needed[c] = 1;
  }
  // Guests: members of needed clusters owned elsewhere, carried so
  // member lists render complete texts without leaving the shard.
  for (size_t c = 0; c < nc; ++c) {
    if (!needed[c]) continue;
    for (uint32_t m : monolith.ClusterMembers(kind, c)) included[m] = 1;
  }

  std::vector<uint32_t> local_surface(ns, 0);
  std::vector<uint32_t> local_cluster(nc, 0);
  for (size_t g = 0; g < ns; ++g) {
    if (!included[g]) continue;
    local_surface[g] = static_cast<uint32_t>(out->surface_global.size());
    out->surface_global.push_back(static_cast<uint32_t>(g));
  }
  for (size_t c = 0; c < nc; ++c) {
    if (!needed[c]) continue;
    local_cluster[c] = static_cast<uint32_t>(out->cluster_global.size());
    out->cluster_global.push_back(static_cast<uint32_t>(c));
  }

  const size_t lns = out->surface_global.size();
  out->surface_text.reserve(lns);
  out->surface_mentions.reserve(lns);
  out->surface_cluster_offset.assign(1, 0);
  for (uint32_t g : out->surface_global) {
    out->surface_text.push_back(
        static_cast<uint32_t>(intern->Intern(monolith.SurfaceText(kind, g))));
    out->surface_mentions.push_back(s.surface_mentions[g]);
    // Owned surfaces keep their full cluster list (everything they touch
    // is needed); a guest keeps the needed subset. Monolith order rides
    // along either way.
    for (uint32_t c : monolith.ClustersOf(kind, g)) {
      if (needed[c]) out->surface_clusters.push_back(local_cluster[c]);
    }
    out->surface_cluster_offset.push_back(out->surface_clusters.size());
  }
  out->surface_order.resize(lns);
  std::iota(out->surface_order.begin(), out->surface_order.end(), 0u);
  std::sort(out->surface_order.begin(), out->surface_order.end(),
            [&](uint32_t a, uint32_t b) {
              const std::string_view ta =
                  monolith.SurfaceText(kind, out->surface_global[a]);
              const std::string_view tb =
                  monolith.SurfaceText(kind, out->surface_global[b]);
              if (ta != tb) return ta < tb;
              return a < b;
            });

  out->cluster_member_offset.assign(1, 0);
  for (uint32_t c : out->cluster_global) {
    for (uint32_t m : monolith.ClusterMembers(kind, c)) {
      out->cluster_members.push_back(local_surface[m]);
    }
    out->cluster_member_offset.push_back(out->cluster_members.size());
    out->cluster_link.push_back(s.cluster_link[c]);
    const int64_t name = s.cluster_link_name[c];
    out->cluster_link_name.push_back(
        name < 0 ? -1 : intern->Intern(monolith.Text(name)));
    out->cluster_link_votes.push_back(s.cluster_link_votes[c]);
  }
}

/// One merged section: global tables rebuilt from owner shards
/// (surfaces) and first-carrier shards (clusters), laid out in the exact
/// order BuildCanonStore would have used.
Status MergeSection(const std::vector<const CanonStore*>& shards,
                    CanonKind kind, TextInterner* intern, CanonSection* out) {
  const uint32_t n = static_cast<uint32_t>(shards.size());
  size_t ns = 0;
  size_t nc = 0;
  for (const CanonStore* shard : shards) {
    const CanonSection& s = shard->section(kind);
    for (size_t ls = 0; ls < s.surface_count(); ++ls) {
      ns = std::max<size_t>(ns, shard->GlobalSurfaceId(kind, ls) + 1);
    }
    for (size_t lc = 0; lc < s.cluster_count(); ++lc) {
      nc = std::max<size_t>(nc, shard->GlobalClusterId(kind, lc) + 1);
    }
  }

  struct Row {
    const CanonStore* from = nullptr;
    uint32_t local = 0;
  };
  std::vector<Row> surface(ns);
  std::vector<Row> cluster(nc);
  for (const CanonStore* shard : shards) {
    const CanonSection& s = shard->section(kind);
    for (size_t ls = 0; ls < s.surface_count(); ++ls) {
      // Only the hash owner speaks for a surface; guest copies carry
      // partial cluster lists.
      if (ShardOfSurface(shard->SurfaceText(kind, ls), n) !=
          shard->shard_index) {
        continue;
      }
      Row& row = surface[shard->GlobalSurfaceId(kind, ls)];
      if (row.from != nullptr) {
        return MergeError("surface owned by two shards");
      }
      row.from = shard;
      row.local = static_cast<uint32_t>(ls);
    }
    for (size_t lc = 0; lc < s.cluster_count(); ++lc) {
      Row& row = cluster[shard->GlobalClusterId(kind, lc)];
      if (row.from == nullptr) {
        row.from = shard;
        row.local = static_cast<uint32_t>(lc);
      }
    }
  }
  for (size_t g = 0; g < ns; ++g) {
    if (surface[g].from == nullptr) {
      return MergeError("incomplete shard set: surface " + std::to_string(g) +
                        " has no owner");
    }
  }
  for (size_t c = 0; c < nc; ++c) {
    if (cluster[c].from == nullptr) {
      return MergeError("incomplete shard set: cluster " + std::to_string(c) +
                        " has no carrier");
    }
  }

  std::vector<std::string_view> texts(ns);
  out->surface_cluster_offset.assign(1, 0);
  for (size_t g = 0; g < ns; ++g) {
    const Row& row = surface[g];
    texts[g] = row.from->SurfaceText(kind, row.local);
    out->surface_text.push_back(
        static_cast<uint32_t>(intern->Intern(texts[g])));
    out->surface_mentions.push_back(
        row.from->section(kind).surface_mentions[row.local]);
    for (uint32_t lc : row.from->ClustersOf(kind, row.local)) {
      out->surface_clusters.push_back(row.from->GlobalClusterId(kind, lc));
    }
    out->surface_cluster_offset.push_back(out->surface_clusters.size());
  }
  out->surface_order.resize(ns);
  std::iota(out->surface_order.begin(), out->surface_order.end(), 0u);
  std::sort(out->surface_order.begin(), out->surface_order.end(),
            [&](uint32_t a, uint32_t b) {
              if (texts[a] != texts[b]) return texts[a] < texts[b];
              return a < b;
            });

  out->cluster_member_offset.assign(1, 0);
  for (size_t c = 0; c < nc; ++c) {
    const Row& row = cluster[c];
    for (uint32_t lm : row.from->ClusterMembers(kind, row.local)) {
      out->cluster_members.push_back(row.from->GlobalSurfaceId(kind, lm));
    }
    out->cluster_member_offset.push_back(out->cluster_members.size());
    const CanonSection& s = row.from->section(kind);
    out->cluster_link.push_back(s.cluster_link[row.local]);
    const int64_t name = s.cluster_link_name[row.local];
    out->cluster_link_name.push_back(
        name < 0 ? -1 : intern->Intern(row.from->Text(name)));
    out->cluster_link_votes.push_back(s.cluster_link_votes[row.local]);
  }
  return Status::OK();
}

}  // namespace

uint32_t ShardOfSurface(std::string_view surface, uint32_t num_shards) {
  if (num_shards == 0) return 0;
  return static_cast<uint32_t>(Fnv1a64(surface.data(), surface.size()) %
                               num_shards);
}

Result<std::vector<CanonStore>> BuildShardedCanonStores(
    const CanonStore& monolith, uint32_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("cannot shard a store into 0 shards");
  }
  if (monolith.shard_count != 0) {
    return Status::InvalidArgument(
        "store is already shard " + std::to_string(monolith.shard_index) +
        "/" + std::to_string(monolith.shard_count) +
        "; shard the monolith, not a shard");
  }
  std::vector<CanonStore> shards(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    CanonStore& shard = shards[k];
    shard.triple_count = monolith.triple_count;
    shard.generation = monolith.generation;
    shard.shard_index = k;
    shard.shard_count = num_shards;
    TextInterner intern(&shard);
    BuildShardSection(monolith, CanonKind::kNp, k, num_shards, &intern,
                      &shard.np);
    BuildShardSection(monolith, CanonKind::kRp, k, num_shards, &intern,
                      &shard.rp);
  }
  return shards;
}

Result<CanonStore> MergeShardedCanonStores(
    const std::vector<CanonStore>& shards) {
  if (shards.empty()) return MergeError("empty shard set");
  const uint32_t n = shards[0].shard_count;
  if (n != shards.size()) {
    return MergeError("got " + std::to_string(shards.size()) +
                      " stores, each expecting a set of " +
                      std::to_string(n));
  }
  std::vector<const CanonStore*> by_index(n, nullptr);
  for (const CanonStore& shard : shards) {
    if (shard.shard_count != n) return MergeError("mixed shard counts");
    if (shard.generation != shards[0].generation) {
      return MergeError("mixed generations (" +
                        std::to_string(shard.generation) + " vs " +
                        std::to_string(shards[0].generation) + ")");
    }
    if (shard.triple_count != shards[0].triple_count) {
      return MergeError("mixed triple counts");
    }
    if (shard.shard_index >= n ||
        by_index[shard.shard_index] != nullptr) {
      return MergeError("duplicate or out-of-range shard index " +
                        std::to_string(shard.shard_index));
    }
    by_index[shard.shard_index] = &shard;
  }

  CanonStore out;
  out.triple_count = shards[0].triple_count;
  out.generation = shards[0].generation;
  TextInterner intern(&out);
  JOCL_RETURN_NOT_OK(MergeSection(by_index, CanonKind::kNp, &intern, &out.np));
  JOCL_RETURN_NOT_OK(MergeSection(by_index, CanonKind::kRp, &intern, &out.rp));
  JOCL_RETURN_NOT_OK(ValidateCanonStore(out));
  return out;
}

}  // namespace jocl

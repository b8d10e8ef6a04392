#include "serve/canon_store.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "util/ids.h"

namespace jocl {
namespace {

/// A section's surface ids: the distinct texts of its roles, numbered in
/// first-appearance order over the roles' surface lists.
class SurfaceNumbering {
 public:
  /// Numbers one problem role's surfaces and returns the section id of
  /// each. The texts must outlive the numbering.
  std::vector<uint32_t> AddRole(const std::vector<std::string>& surfaces) {
    id_of_.reserve(id_of_.size() + surfaces.size());
    std::vector<uint32_t> ids;
    ids.reserve(surfaces.size());
    for (const std::string& text : surfaces) {
      const auto [it, inserted] =
          id_of_.emplace(text, static_cast<uint32_t>(texts_.size()));
      if (inserted) texts_.push_back(text);
      ids.push_back(it->second);
    }
    return ids;
  }

  std::vector<std::string_view> TakeTexts() { return std::move(texts_); }

 private:
  std::unordered_map<std::string_view, uint32_t> id_of_;
  std::vector<std::string_view> texts_;
};

/// Per-section build state in flat arrays over section surface ids:
/// mention counts, each surface's first raw cluster label plus the
/// (rare) other labels its mentions carry, and the linked mentions that
/// vote for their cluster's link.
class SectionBuilder {
 public:
  SectionBuilder(std::vector<std::string_view> texts, size_t mention_count)
      : texts_(std::move(texts)),
        mentions_(texts_.size(), 0),
        first_label_(texts_.size(), 0) {
    votes_.reserve(mention_count);
  }

  void AddMention(uint32_t surface, size_t raw_label, int64_t link) {
    if (mentions_[surface]++ == 0) {
      first_label_[surface] = raw_label;
    } else if (raw_label != first_label_[surface]) {
      extra_labels_.emplace_back(surface, raw_label);
    }
    if (link != kNilId) votes_.push_back({surface, 0, raw_label, link});
  }

  /// Lays out the CSR arrays. \p link_name resolves a CKB id to its
  /// canonical name for interning.
  template <typename NameFn>
  void Finish(CanonSection* out, TextInterner* intern, NameFn&& link_name) {
    LayOutSurfaces(out, intern);
    VoteLinks(LayOutClusters(out), out);
    out->cluster_link_name.reserve(out->cluster_count());
    for (int64_t link : out->cluster_link) {
      out->cluster_link_name.push_back(
          link == kNilId ? -1 : intern->Intern(link_name(link)));
    }
  }

 private:
  void LayOutSurfaces(CanonSection* out, TextInterner* intern) const {
    const size_t ns = texts_.size();
    out->surface_text.reserve(ns);
    for (std::string_view text : texts_) {
      out->surface_text.push_back(
          static_cast<uint32_t>(intern->Intern(text)));
    }
    out->surface_mentions = mentions_;
    out->surface_order.resize(ns);
    std::iota(out->surface_order.begin(), out->surface_order.end(), 0u);
    // Section texts are distinct, so the order needs no tie-break.
    std::sort(out->surface_order.begin(), out->surface_order.end(),
              [&](uint32_t a, uint32_t b) { return texts_[a] < texts_[b]; });
  }

  /// Lays out surface -> cluster and cluster -> member CSR. Returns the
  /// raw label of each `surface_clusters` entry.
  std::vector<size_t> LayOutClusters(CanonSection* out) {
    // Each surface's distinct raw labels, ascending.
    const size_t ns = texts_.size();
    std::sort(extra_labels_.begin(), extra_labels_.end());
    extra_labels_.erase(
        std::unique(extra_labels_.begin(), extra_labels_.end()),
        extra_labels_.end());
    std::vector<size_t> raw;
    raw.reserve(ns + extra_labels_.size());
    out->surface_cluster_offset.assign(1, 0);
    out->surface_cluster_offset.reserve(ns + 1);
    size_t e = 0;
    for (size_t s = 0; s < ns; ++s) {
      const size_t begin = raw.size();
      if (mentions_[s] > 0) raw.push_back(first_label_[s]);
      for (; e < extra_labels_.size() && extra_labels_[e].first == s; ++e) {
        raw.push_back(extra_labels_[e].second);
      }
      std::sort(raw.begin() + static_cast<std::ptrdiff_t>(begin), raw.end());
      out->surface_cluster_offset.push_back(raw.size());
    }

    // Dense cluster ids: first appearance over surfaces in id order.
    std::unordered_map<size_t, uint32_t> dense_of;
    dense_of.reserve(raw.size());
    std::vector<uint64_t> member_at(1, 0);  // member counts, then offsets
    out->surface_clusters.resize(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      const auto [it, inserted] = dense_of.emplace(
          raw[i], static_cast<uint32_t>(member_at.size() - 1));
      if (inserted) member_at.push_back(0);
      out->surface_clusters[i] = it->second;
      ++member_at[it->second + 1];
    }
    std::partial_sum(member_at.begin(), member_at.end(), member_at.begin());

    // Members: surfaces visited in ascending id order land ascending.
    out->cluster_members.resize(raw.size());
    std::vector<uint64_t> next(member_at.begin(), member_at.end() - 1);
    for (size_t s = 0; s < ns; ++s) {
      for (uint64_t i = out->surface_cluster_offset[s];
           i < out->surface_cluster_offset[s + 1]; ++i) {
        out->cluster_members[next[out->surface_clusters[i]]++] =
            static_cast<uint32_t>(s);
      }
    }
    out->cluster_member_offset = std::move(member_at);
    return raw;
  }

  /// Majority link per cluster: the linked mentions' links bucketed by
  /// cluster and sorted in each bucket; the longest run of one link
  /// wins, the first (smallest id) on a tie. \p raw is the raw label of
  /// each `surface_clusters` entry.
  void VoteLinks(const std::vector<size_t>& raw, CanonSection* out) {
    const size_t nc = out->cluster_member_offset.size() - 1;
    std::vector<uint64_t> ballot_at(nc + 1, 0);
    for (Vote& vote : votes_) {
      uint64_t i = out->surface_cluster_offset[vote.surface];
      while (raw[i] != vote.label) ++i;
      vote.cluster = out->surface_clusters[i];
      ++ballot_at[vote.cluster + 1];
    }
    std::partial_sum(ballot_at.begin(), ballot_at.end(), ballot_at.begin());
    std::vector<int64_t> ballots(votes_.size());
    std::vector<uint64_t> next(ballot_at.begin(), ballot_at.end() - 1);
    for (const Vote& vote : votes_) ballots[next[vote.cluster]++] = vote.link;

    out->cluster_link.assign(nc, kNilId);
    out->cluster_link_votes.assign(nc, 0);
    for (size_t c = 0; c < nc; ++c) {
      const auto end =
          ballots.begin() + static_cast<std::ptrdiff_t>(ballot_at[c + 1]);
      auto run = ballots.begin() + static_cast<std::ptrdiff_t>(ballot_at[c]);
      std::sort(run, end);
      while (run != end) {
        const auto run_end = std::upper_bound(run, end, *run);
        const uint64_t count = static_cast<uint64_t>(run_end - run);
        if (count > out->cluster_link_votes[c]) {
          out->cluster_link[c] = *run;
          out->cluster_link_votes[c] = count;
        }
        run = run_end;
      }
    }
  }

  struct Vote {
    uint32_t surface;
    uint32_t cluster;  ///< dense id, set by VoteLinks
    size_t label;
    int64_t link;
  };

  std::vector<std::string_view> texts_;
  std::vector<uint64_t> mentions_;
  std::vector<size_t> first_label_;
  /// (surface, label) of mentions whose label differs from the first.
  std::vector<std::pair<uint32_t, size_t>> extra_labels_;
  std::vector<Vote> votes_;
};

Status Invalid(const char* what) {
  return Status::InvalidArgument(std::string("canon store: ") + what);
}

Status CheckOffsets(const std::vector<uint64_t>& offsets, size_t counts,
                    size_t pool_size, const char* what) {
  if (offsets.size() != counts + 1) return Invalid(what);
  if (offsets.front() != 0 || offsets.back() != pool_size) {
    return Invalid(what);
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return Invalid(what);
  }
  return Status::OK();
}

Status ValidateSection(const CanonStore& store, const CanonSection& s) {
  const size_t ns = s.surface_count();
  const size_t nc = s.cluster_count();
  if (s.surface_order.size() != ns || s.surface_mentions.size() != ns) {
    return Invalid("surface array sizes disagree");
  }
  if (s.cluster_link_name.size() != nc || s.cluster_link_votes.size() != nc) {
    return Invalid("cluster array sizes disagree");
  }
  for (uint32_t text : s.surface_text) {
    if (text >= store.string_count()) return Invalid("surface text id range");
  }
  std::vector<uint32_t> order = s.surface_order;
  std::sort(order.begin(), order.end());
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] != i) return Invalid("surface order is not a permutation");
  }
  // FindSurface binary-searches this index: an unsorted one would load
  // fine and then miss surfaces the store holds. Two surfaces with one
  // text would leave one of them unreachable, so the order is strict.
  for (size_t i = 1; i < ns; ++i) {
    if (store.Text(s.surface_text[s.surface_order[i - 1]]) >=
        store.Text(s.surface_text[s.surface_order[i]])) {
      return Invalid(
          "surface order is not sorted by surface text, or repeats one");
    }
  }
  JOCL_RETURN_NOT_OK(CheckOffsets(s.surface_cluster_offset, ns,
                                  s.surface_clusters.size(),
                                  "surface->cluster offsets"));
  for (uint32_t c : s.surface_clusters) {
    if (c >= nc) return Invalid("surface cluster id range");
  }
  JOCL_RETURN_NOT_OK(CheckOffsets(s.cluster_member_offset, nc,
                                  s.cluster_members.size(),
                                  "cluster->member offsets"));
  for (uint32_t m : s.cluster_members) {
    if (m >= ns) return Invalid("cluster member id range");
  }
  for (int64_t name : s.cluster_link_name) {
    if (name != -1 &&
        (name < 0 || static_cast<size_t>(name) >= store.string_count())) {
      return Invalid("cluster link name id range");
    }
  }
  // Shard stores carry strictly-ascending global id maps; a monolith
  // leaves them empty (identity).
  if (!s.surface_global.empty()) {
    if (s.surface_global.size() != ns) {
      return Invalid("surface global map size disagrees");
    }
    for (size_t i = 1; i < ns; ++i) {
      if (s.surface_global[i] <= s.surface_global[i - 1]) {
        return Invalid("surface global map is not strictly ascending");
      }
    }
  }
  if (!s.cluster_global.empty()) {
    if (s.cluster_global.size() != nc) {
      return Invalid("cluster global map size disagrees");
    }
    for (size_t i = 1; i < nc; ++i) {
      if (s.cluster_global[i] <= s.cluster_global[i - 1]) {
        return Invalid("cluster global map is not strictly ascending");
      }
    }
  }
  return Status::OK();
}

}  // namespace

int64_t CanonStore::FindClusterByGlobalId(CanonKind kind,
                                          uint64_t global_id) const {
  const CanonSection& s = section(kind);
  if (s.cluster_global.empty()) {
    return global_id < s.cluster_count() ? static_cast<int64_t>(global_id)
                                         : -1;
  }
  const auto it = std::lower_bound(s.cluster_global.begin(),
                                   s.cluster_global.end(), global_id);
  if (it == s.cluster_global.end() || *it != global_id) return -1;
  return static_cast<int64_t>(it - s.cluster_global.begin());
}

int64_t CanonStore::FindSurface(CanonKind kind,
                                std::string_view surface) const {
  const CanonSection& s = section(kind);
  auto it = std::lower_bound(
      s.surface_order.begin(), s.surface_order.end(), surface,
      [&](uint32_t id, std::string_view target) {
        return Text(s.surface_text[id]) < target;
      });
  if (it == s.surface_order.end() || Text(s.surface_text[*it]) != surface) {
    return -1;
  }
  return static_cast<int64_t>(*it);
}

TextInterner::TextInterner(CanonStore* store) : store_(store) {
  store_->text_offset.assign(1, 0);
}

int64_t TextInterner::Intern(std::string_view text) {
  const auto [it, inserted] =
      ids_.emplace(text, static_cast<int64_t>(store_->string_count()));
  if (inserted) {
    store_->text_pool.insert(store_->text_pool.end(), text.begin(),
                             text.end());
    store_->text_offset.push_back(store_->text_pool.size());
  }
  return it->second;
}

CanonStore BuildCanonStore(const JoclProblem& problem,
                           const JoclResult& result, const CuratedKb& ckb,
                           uint64_t generation) {
  CanonStore store;
  TextInterner intern(&store);
  store.triple_count = problem.triples.size();
  store.generation = generation;

  // NP surfaces collapse the subject and object roles onto distinct
  // strings: the decode pre-merges same-string surfaces across roles, so
  // a string carries one cluster no matter which slot it appeared in.
  // Each role surface maps to its section id once; mentions then only
  // index arrays.
  SurfaceNumbering np_ids;
  const std::vector<uint32_t> np_of_subject =
      np_ids.AddRole(problem.subject_surfaces);
  const std::vector<uint32_t> np_of_object =
      np_ids.AddRole(problem.object_surfaces);
  SurfaceNumbering rp_ids;
  const std::vector<uint32_t> rp_of_predicate =
      rp_ids.AddRole(problem.predicate_surfaces);
  SectionBuilder np(np_ids.TakeTexts(), problem.np_mention_count());
  SectionBuilder rp(rp_ids.TakeTexts(), problem.rp_mention_count());
  const size_t n = problem.triples.size();
  for (size_t t = 0; t < n; ++t) {
    np.AddMention(np_of_subject[problem.subject_of[t]],
                  result.np_cluster[t * 2], result.np_link[t * 2]);
    np.AddMention(np_of_object[problem.object_of[t]],
                  result.np_cluster[t * 2 + 1], result.np_link[t * 2 + 1]);
    rp.AddMention(rp_of_predicate[problem.predicate_of[t]],
                  result.rp_cluster[t], result.rp_link[t]);
  }
  np.Finish(&store.np, &intern,
            [&](int64_t id) -> std::string_view { return ckb.entity(id).name; });
  rp.Finish(&store.rp, &intern, [&](int64_t id) -> std::string_view {
    return ckb.relation(id).name;
  });
  return store;
}

Status ValidateCanonStore(const CanonStore& store) {
  JOCL_RETURN_NOT_OK(CheckOffsets(store.text_offset, store.string_count(),
                                  store.text_pool.size(), "text offsets"));
  JOCL_RETURN_NOT_OK(ValidateSection(store, store.np));
  JOCL_RETURN_NOT_OK(ValidateSection(store, store.rp));
  if (store.shard_count > 0 && store.shard_index >= store.shard_count) {
    return Invalid("shard index out of range");
  }
  return Status::OK();
}

}  // namespace jocl

#include "support/canon_store_reference.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>

#include "util/ids.h"

namespace jocl {
namespace {

/// Interns strings into the store's shared text pool, first-appearance
/// order. Build-time only; the finished store carries no hash map.
class Interner {
 public:
  explicit Interner(CanonStore* store) : store_(store) {
    store_->text_offset.assign(1, 0);
  }

  int64_t Intern(std::string_view text) {
    auto it = ids_.find(std::string(text));
    if (it != ids_.end()) return it->second;
    const int64_t id = static_cast<int64_t>(store_->string_count());
    store_->text_pool.insert(store_->text_pool.end(), text.begin(),
                             text.end());
    store_->text_offset.push_back(store_->text_pool.size());
    ids_.emplace(std::string(text), id);
    return id;
  }

 private:
  CanonStore* store_;
  std::unordered_map<std::string, int64_t> ids_;
};

/// Per-section build state: mentions flattened to (surface, raw cluster
/// label, link) rows before the CSR arrays are laid out.
struct SectionBuilder {
  std::unordered_map<std::string, uint32_t> surface_id;
  std::vector<std::string_view> surface_text;        // by surface id
  std::vector<uint64_t> mentions;                    // by surface id
  std::vector<std::vector<size_t>> surface_labels;   // raw labels, deduped
  // raw label -> (link id -> votes); std::map for deterministic ties.
  std::unordered_map<size_t, std::map<int64_t, uint64_t>> label_votes;

  uint32_t SurfaceOf(const std::string& text) {
    auto [it, inserted] =
        surface_id.emplace(text, static_cast<uint32_t>(surface_text.size()));
    if (inserted) {
      surface_text.push_back(it->first);
      mentions.push_back(0);
      surface_labels.emplace_back();
    }
    return it->second;
  }

  void AddMention(uint32_t surface, size_t raw_label, int64_t link) {
    ++mentions[surface];
    std::vector<size_t>& labels = surface_labels[surface];
    if (std::find(labels.begin(), labels.end(), raw_label) == labels.end()) {
      labels.push_back(raw_label);
    }
    if (link != kNilId) ++label_votes[raw_label][link];
  }

  /// Lays out the CSR arrays. \p link_name resolves a CKB id to its
  /// canonical name for interning.
  template <typename NameFn>
  void Finish(CanonSection* out, Interner* intern, NameFn&& link_name) {
    const size_t ns = surface_text.size();
    out->surface_text.reserve(ns);
    for (std::string_view text : surface_text) {
      out->surface_text.push_back(
          static_cast<uint32_t>(intern->Intern(text)));
    }
    out->surface_mentions = mentions;
    out->surface_order.resize(ns);
    for (size_t s = 0; s < ns; ++s) {
      out->surface_order[s] = static_cast<uint32_t>(s);
    }
    std::sort(out->surface_order.begin(), out->surface_order.end(),
              [&](uint32_t a, uint32_t b) {
                if (surface_text[a] != surface_text[b]) {
                  return surface_text[a] < surface_text[b];
                }
                return a < b;
              });

    // Dense cluster ids: first appearance over surfaces in id order.
    std::unordered_map<size_t, uint32_t> dense_of;
    std::vector<std::vector<uint32_t>> members;
    out->surface_cluster_offset.assign(1, 0);
    for (size_t s = 0; s < ns; ++s) {
      std::vector<size_t> labels = surface_labels[s];
      std::sort(labels.begin(), labels.end());
      for (size_t raw : labels) {
        auto [it, inserted] =
            dense_of.emplace(raw, static_cast<uint32_t>(members.size()));
        if (inserted) members.emplace_back();
        members[it->second].push_back(static_cast<uint32_t>(s));
        out->surface_clusters.push_back(it->second);
      }
      out->surface_cluster_offset.push_back(out->surface_clusters.size());
    }

    const size_t nc = members.size();
    out->cluster_member_offset.assign(1, 0);
    out->cluster_link.reserve(nc);
    for (size_t c = 0; c < nc; ++c) {
      // Surfaces were visited in ascending id order, so members are
      // already ascending and distinct.
      out->cluster_members.insert(out->cluster_members.end(),
                                  members[c].begin(), members[c].end());
      out->cluster_member_offset.push_back(out->cluster_members.size());
    }
    // Raw label of each dense cluster (for the vote lookup).
    std::vector<size_t> raw_of(nc, 0);
    for (const auto& [raw, dense] : dense_of) raw_of[dense] = raw;
    for (size_t c = 0; c < nc; ++c) {
      int64_t winner = kNilId;
      uint64_t votes = 0;
      auto it = label_votes.find(raw_of[c]);
      if (it != label_votes.end()) {
        for (const auto& [link, count] : it->second) {
          if (count > votes) {  // ties keep the smaller id (map order)
            winner = link;
            votes = count;
          }
        }
      }
      out->cluster_link.push_back(winner);
      out->cluster_link_name.push_back(
          winner == kNilId ? -1 : intern->Intern(link_name(winner)));
      out->cluster_link_votes.push_back(votes);
    }
  }
};

}  // namespace

CanonStore BuildCanonStoreReference(const JoclProblem& problem,
                                    const JoclResult& result,
                                    const CuratedKb& ckb,
                                    uint64_t generation) {
  CanonStore store;
  Interner intern(&store);
  store.triple_count = problem.triples.size();
  store.generation = generation;

  // NP surfaces collapse the subject and object roles onto distinct
  // strings: the decode pre-merges same-string surfaces across roles, so
  // a string carries one cluster no matter which slot it appeared in.
  SectionBuilder np;
  for (const std::string& text : problem.subject_surfaces) np.SurfaceOf(text);
  for (const std::string& text : problem.object_surfaces) np.SurfaceOf(text);
  SectionBuilder rp;
  for (const std::string& text : problem.predicate_surfaces) {
    rp.SurfaceOf(text);
  }
  const size_t n = problem.triples.size();
  for (size_t t = 0; t < n; ++t) {
    np.AddMention(
        np.SurfaceOf(problem.subject_surfaces[problem.subject_of[t]]),
        result.np_cluster[t * 2], result.np_link[t * 2]);
    np.AddMention(np.SurfaceOf(problem.object_surfaces[problem.object_of[t]]),
                  result.np_cluster[t * 2 + 1], result.np_link[t * 2 + 1]);
    rp.AddMention(
        rp.SurfaceOf(problem.predicate_surfaces[problem.predicate_of[t]]),
        result.rp_cluster[t], result.rp_link[t]);
  }
  np.Finish(&store.np, &intern,
            [&](int64_t id) -> std::string_view { return ckb.entity(id).name; });
  rp.Finish(&store.rp, &intern, [&](int64_t id) -> std::string_view {
    return ckb.relation(id).name;
  });
  return store;
}

}  // namespace jocl

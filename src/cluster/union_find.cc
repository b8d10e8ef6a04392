#include "cluster/union_find.h"

#include <cstddef>
#include <utility>

namespace jocl {

UnionFind::UnionFind(size_t n)
    : parent_(n), rank_(n, 0), set_count_(n) {
  for (size_t i = 0; i < n; ++i) parent_[i] = i;
}

size_t UnionFind::Find(size_t id) {
  size_t root = id;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[id] != root) {
    size_t next = parent_[id];
    parent_[id] = root;
    id = next;
  }
  return root;
}

bool UnionFind::Union(size_t a, size_t b) {
  size_t ra = Find(a);
  size_t rb = Find(b);
  if (ra == rb) return false;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  --set_count_;
  return true;
}

bool UnionFind::Connected(size_t a, size_t b) { return Find(a) == Find(b); }

std::vector<size_t> UnionFind::Labels() {
  constexpr size_t kUnlabeled = static_cast<size_t>(-1);
  std::vector<size_t> labels(parent_.size());
  std::vector<size_t> label_of_root(parent_.size(), kUnlabeled);
  size_t next_label = 0;
  for (size_t i = 0; i < parent_.size(); ++i) {
    size_t& label = label_of_root[Find(i)];
    if (label == kUnlabeled) label = next_label++;
    labels[i] = label;
  }
  return labels;
}

std::vector<std::vector<size_t>> UnionFind::Groups() {
  std::vector<size_t> labels = Labels();
  std::vector<std::vector<size_t>> groups(set_count_);
  for (size_t i = 0; i < labels.size(); ++i) {
    groups[labels[i]].push_back(i);
  }
  return groups;
}

}  // namespace jocl

#include "data/dataset.h"

namespace jocl {

std::vector<size_t> Dataset::GoldNpLabels() const {
  std::vector<size_t> labels(gold_np_group.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<size_t>(gold_np_group[i]);
  }
  return labels;
}

std::vector<size_t> Dataset::GoldRpLabels() const {
  std::vector<size_t> labels(gold_rp_group.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<size_t>(gold_rp_group[i]);
  }
  return labels;
}

}  // namespace jocl

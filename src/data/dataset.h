#ifndef JOCL_DATA_DATASET_H_
#define JOCL_DATA_DATASET_H_

#include <string>
#include <cstddef>
#include <vector>

#include "kb/curated_kb.h"
#include "kb/open_kb.h"
#include "sideinfo/paraphrase_store.h"

namespace jocl {

/// \brief A benchmark instance: OKB + CKB + gold labels + side resources.
///
/// Gold labels are aligned with the OKB: triple i has gold subject/object
/// entities and a gold relation (kNilId when the referent is absent from
/// the CKB — NYTimes2018-style noise). Canonicalization gold is carried
/// separately as group ids so that NIL mentions still have a gold
/// clustering (two mentions of the same unseen entity share a group).
struct Dataset {
  std::string name;
  CuratedKb ckb;
  OpenKb okb;

  // --- gold linking (per triple) ----------------------------------------
  std::vector<int64_t> gold_subject_entity;
  std::vector<int64_t> gold_relation;
  std::vector<int64_t> gold_object_entity;

  // --- gold canonicalization --------------------------------------------
  /// Group id per NP mention in OpenKb::NounPhraseMentions() order
  /// (2 per triple: subject then object).
  std::vector<int64_t> gold_np_group;
  /// Group id per RP mention (1 per triple).
  std::vector<int64_t> gold_rp_group;

  // --- splits -------------------------------------------------------------
  /// Triple indices whose labels may be used for training (the paper's
  /// 20%-of-entities validation split). Empty for NYTimes2018-style data.
  std::vector<size_t> validation_triples;
  /// The remaining triple indices (evaluation set).
  std::vector<size_t> test_triples;

  // --- side resources -------------------------------------------------------
  /// Noisy PPDB-style paraphrase clusters over NPs, RPs and entity names.
  ParaphraseStore ppdb;
  /// Synthetic "source text" sentences for embedding training.
  std::vector<std::vector<std::string>> aux_sentences;

  // --- convenience accessors ------------------------------------------------

  /// Gold entity of an NP-mention index (mention order: 2 per triple).
  int64_t GoldEntityOfMention(size_t mention_index) const {
    size_t triple = mention_index / 2;
    return (mention_index % 2 == 0) ? gold_subject_entity[triple]
                                    : gold_object_entity[triple];
  }

  /// Gold NP-group labels as size_t for the clustering metrics; NIL groups
  /// are already distinct ids by construction.
  std::vector<size_t> GoldNpLabels() const;

  /// Gold RP-group labels as size_t.
  std::vector<size_t> GoldRpLabels() const;
};

}  // namespace jocl

#endif  // JOCL_DATA_DATASET_H_

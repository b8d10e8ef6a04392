#ifndef JOCL_BENCH_BENCH_COMMON_H_
#define JOCL_BENCH_BENCH_COMMON_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/jocl.h"
#include "core/signals.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "eval/linking_metrics.h"
#include "eval/table_printer.h"
#include "util/stopwatch.h"

namespace jocl {
namespace bench {

/// Scale/seed knobs shared by every bench binary.
/// JOCL_BENCH_SCALE multiplies the generated workload size (default 1.0 =
/// ~3000 triples ReVerb45K-like, ~2300 NYTimes2018-like; 15.0 reproduces
/// the papers' full 45K scale). JOCL_BENCH_SEED switches the world. A value
/// that is not a finite scale > 0 or an unsigned seed, parsed whole, stops
/// the bench with exit status 2.
struct BenchEnv {
  double scale = 1.0;
  uint64_t seed = 42;

  static BenchEnv FromEnv() {
    BenchEnv env;
    if (const char* s = std::getenv("JOCL_BENCH_SCALE")) {
      if (!ParseWhole(s, &env.scale) || !std::isfinite(env.scale) ||
          env.scale <= 0.0) {
        Reject("JOCL_BENCH_SCALE", s, "a finite number > 0");
      }
    }
    if (const char* s = std::getenv("JOCL_BENCH_SEED")) {
      if (!ParseWhole(s, &env.seed)) {
        Reject("JOCL_BENCH_SEED", s, "an unsigned integer");
      }
    }
    return env;
  }

 private:
  template <typename T>
  static bool ParseWhole(const char* s, T* value) {
    const char* end = s + std::strlen(s);
    auto [ptr, ec] = std::from_chars(s, end, *value);
    return ec == std::errc() && ptr == end;
  }

  [[noreturn]] static void Reject(const char* name, const char* value,
                                  const char* expected) {
    std::fprintf(stderr, "%s must be %s, got \"%s\"\n", name, expected,
                 value);
    std::exit(2);
  }
};

/// A generated data set with its signal bundle (signals reference the
/// dataset, so both live behind stable pointers).
class DataPack {
 public:
  static std::unique_ptr<DataPack> ReVerb(const BenchEnv& env) {
    auto pack = std::unique_ptr<DataPack>(new DataPack());
    pack->dataset_ = std::make_unique<Dataset>(
        GenerateReVerb45K(env.scale, env.seed).MoveValueOrDie());
    pack->Finish();
    return pack;
  }

  static std::unique_ptr<DataPack> NyTimes(const BenchEnv& env) {
    auto pack = std::unique_ptr<DataPack>(new DataPack());
    pack->dataset_ = std::make_unique<Dataset>(
        GenerateNYTimes2018(env.scale, env.seed + 1).MoveValueOrDie());
    pack->Finish();
    return pack;
  }

  const Dataset& dataset() const { return *dataset_; }
  const SignalBundle& signals() const { return *signals_; }

  /// The evaluation subset: test triples (ReVerb) or everything (NYT).
  const std::vector<size_t>& eval_triples() const { return eval_; }

  // Gold label extractors aligned with mention order over eval_triples().
  std::vector<size_t> GoldNp() const {
    std::vector<size_t> gold;
    for (size_t t : eval_) {
      gold.push_back(static_cast<size_t>(dataset_->gold_np_group[t * 2]));
      gold.push_back(
          static_cast<size_t>(dataset_->gold_np_group[t * 2 + 1]));
    }
    return gold;
  }
  std::vector<size_t> GoldRp() const {
    std::vector<size_t> gold;
    for (size_t t : eval_) {
      gold.push_back(static_cast<size_t>(dataset_->gold_rp_group[t]));
    }
    return gold;
  }
  std::vector<int64_t> GoldEntities() const {
    std::vector<int64_t> gold;
    for (size_t t : eval_) {
      gold.push_back(dataset_->gold_subject_entity[t]);
      gold.push_back(dataset_->gold_object_entity[t]);
    }
    return gold;
  }
  std::vector<int64_t> GoldRelations() const {
    std::vector<int64_t> gold;
    for (size_t t : eval_) gold.push_back(dataset_->gold_relation[t]);
    return gold;
  }

  /// NP-mention positions whose gold entity is non-NIL. Mirrors the
  /// paper's manual-labeling protocol: annotators provide the gold mapping
  /// entity, so linking accuracy is measured over linkable mentions.
  std::vector<size_t> LinkableNpMentions() const {
    std::vector<size_t> positions;
    for (size_t i = 0; i < eval_.size(); ++i) {
      if (dataset_->gold_subject_entity[eval_[i]] != kNilId) {
        positions.push_back(i * 2);
      }
      if (dataset_->gold_object_entity[eval_[i]] != kNilId) {
        positions.push_back(i * 2 + 1);
      }
    }
    return positions;
  }

  /// RP-mention positions whose gold relation is non-NIL.
  std::vector<size_t> LinkableRpMentions() const {
    std::vector<size_t> positions;
    for (size_t i = 0; i < eval_.size(); ++i) {
      if (dataset_->gold_relation[eval_[i]] != kNilId) positions.push_back(i);
    }
    return positions;
  }

 private:
  DataPack() = default;
  void Finish() {
    signals_ = std::make_unique<SignalBundle>(
        BuildSignals(*dataset_).MoveValueOrDie());
    if (dataset_->validation_triples.empty()) {
      eval_.resize(dataset_->okb.size());
      for (size_t i = 0; i < eval_.size(); ++i) eval_[i] = i;
    } else {
      eval_ = dataset_->test_triples;
    }
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<SignalBundle> signals_;
  std::vector<size_t> eval_;
};

/// Formats a ClusteringScore as the four Table-1 columns.
inline void AddScoreCells(const ClusteringScore& score,
                          std::vector<std::string>* cells) {
  cells->push_back(TablePrinter::Num(score.macro.f1));
  cells->push_back(TablePrinter::Num(score.micro.f1));
  cells->push_back(TablePrinter::Num(score.pairwise.f1));
  cells->push_back(TablePrinter::Num(score.average_f1));
}

/// Prints a bench banner with workload facts.
inline void Banner(const char* title, const BenchEnv& env) {
  std::printf("=== %s ===\n", title);
  std::printf("workload scale %.2f (JOCL_BENCH_SCALE), seed %llu "
              "(JOCL_BENCH_SEED)\n\n",
              env.scale, static_cast<unsigned long long>(env.seed));
}

}  // namespace bench
}  // namespace jocl

#endif  // JOCL_BENCH_BENCH_COMMON_H_

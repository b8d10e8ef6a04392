// Tests of the incremental streaming session: delta-partition edge cases
// (merge, single-shard touch, removal split, empty no-op) on a
// handcrafted world whose components are known by construction, plus the
// acceptance bar — cold-restart equivalence: ingesting a dataset in K
// batches yields a result byte-identical to one-shot JoclRuntime::Infer,
// for K in {1, 4, 16}.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/problem_builder.h"
#include "core/runtime.h"
#include "core/session.h"
#include "core/shard.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "scratch_problem.h"
#include "support/allocation_counter.h"
#include "support/tail_batch.h"

namespace jocl {
namespace {

void ExpectByteIdentical(const JoclResult& a, const JoclResult& b) {
  EXPECT_EQ(a.np_cluster, b.np_cluster);
  EXPECT_EQ(a.rp_cluster, b.rp_cluster);
  EXPECT_EQ(a.np_link, b.np_link);
  EXPECT_EQ(a.rp_link, b.rp_link);
  EXPECT_EQ(a.triples, b.triples);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.diagnostics.iterations, b.diagnostics.iterations);
  EXPECT_EQ(a.diagnostics.converged, b.diagnostics.converged);
  EXPECT_EQ(a.diagnostics.unconverged_components,
            b.diagnostics.unconverged_components);
  EXPECT_EQ(a.diagnostics.final_residual, b.diagnostics.final_residual);
  EXPECT_EQ(a.diagnostics.marginals, b.diagnostics.marginals);
}

// ---------- handcrafted delta-partition world --------------------------------
//
// Components are wired through pair variables, which exist between
// *distinct* surfaces with identical token sets (IDF similarity 1.0):
//   A = {t0, t1}   subjects "barack obama" / "obama barack"
//   B = {t2}       subject "angela merkel"
//   C = {t3}       subject "tim cook"
//   t4 bridges A and B: subject pairs with B, object pairs with A
//   t5 touches C only: subject pairs with "tim cook"
class SessionDeltaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset();
    dataset_->name = "session-delta-world";
    OpenKb& okb = dataset_->okb;
    ASSERT_TRUE(okb.AddTriple("barack obama", "lives in", "washington dc").ok());
    ASSERT_TRUE(okb.AddTriple("obama barack", "works in", "white house").ok());
    ASSERT_TRUE(okb.AddTriple("angela merkel", "lives in", "berlin city").ok());
    ASSERT_TRUE(okb.AddTriple("tim cook", "works at", "apple inc").ok());
    ASSERT_TRUE(okb.AddTriple("merkel angela", "visited", "dc washington").ok());
    ASSERT_TRUE(okb.AddTriple("cook tim", "works at", "cupertino hq").ok());
    signals_ = new SignalBundle(BuildSignals(*dataset_).MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete signals_;
    delete dataset_;
  }

  static JoclResult OneShot(const std::vector<size_t>& triples,
                            const JoclOptions& options = {}) {
    return JoclRuntime(options)
        .Infer(*dataset_, *signals_, triples)
        .MoveValueOrDie();
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
};

Dataset* SessionDeltaTest::dataset_ = nullptr;
SignalBundle* SessionDeltaTest::signals_ = nullptr;

TEST_F(SessionDeltaTest, FirstBatchPartitionsAsExpected) {
  JoclSession session(dataset_, signals_);
  SessionStats stats;
  ASSERT_TRUE(session.AddTriples({0, 1, 2, 3}, &stats).ok());
  EXPECT_EQ(stats.added, 4u);
  EXPECT_EQ(stats.shards, 3u);        // {t0,t1}, {t2}, {t3}
  EXPECT_EQ(stats.dirty_shards, 3u);  // everything is new
  EXPECT_EQ(stats.clean_shards, 0u);
  ExpectByteIdentical(session.result(), OneShot({0, 1, 2, 3}));
}

TEST_F(SessionDeltaTest, BridgeBatchMergesTwoShardsAndLeavesTheThirdClean) {
  JoclSession session(dataset_, signals_);
  ASSERT_TRUE(session.AddTriples({0, 1, 2, 3}).ok());
  SessionStats stats;
  ASSERT_TRUE(session.AddTriples({4}, &stats).ok());
  // t4 bridges {t0,t1} and {t2} into one shard; {t3} is untouched.
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.dirty_shards, 1u);
  EXPECT_EQ(stats.clean_shards, 1u);
  // The merged shard is a new store entry; the pre-merge {t0,t1} and {t2}
  // stay cached beside it.
  EXPECT_EQ(session.cached_components(), 4u);
  ExpectByteIdentical(session.result(), OneShot({0, 1, 2, 3, 4}));
}

TEST_F(SessionDeltaTest, BatchTouchingOneShardDirtiesOnlyThatShard) {
  JoclSession session(dataset_, signals_);
  ASSERT_TRUE(session.AddTriples({0, 1, 2, 3}).ok());
  SessionStats stats;
  ASSERT_TRUE(session.AddTriples({5}, &stats).ok());
  // t5 attaches to {t3}; {t0,t1} and {t2} stay clean.
  EXPECT_EQ(stats.shards, 3u);
  EXPECT_EQ(stats.dirty_shards, 1u);
  EXPECT_EQ(stats.clean_shards, 2u);
  // {t3,t5} is the only new store entry.
  EXPECT_EQ(session.cached_components(), 4u);
  ExpectByteIdentical(session.result(), OneShot({0, 1, 2, 3, 5}));
}

TEST_F(SessionDeltaTest, RemovalSplitsTheMergedShardAndRestoresFromStore) {
  JoclSession session(dataset_, signals_);
  ASSERT_TRUE(session.AddTriples({0, 1, 2, 3}).ok());
  ASSERT_TRUE(session.AddTriples({4}).ok());  // merge
  SessionStats stats;
  ASSERT_TRUE(session.RemoveTriples({4}, &stats).ok());
  EXPECT_EQ(stats.removed, 1u);
  // The merged shard splits back into {t0,t1} and {t2} — both solved
  // before the merge and still cached, so nothing is re-inferred.
  EXPECT_EQ(stats.shards, 3u);
  EXPECT_EQ(stats.dirty_shards, 0u);
  EXPECT_EQ(stats.clean_shards, 3u);
  EXPECT_EQ(session.cached_components(), 4u);  // the restore stored nothing
  ExpectByteIdentical(session.result(), OneShot({0, 1, 2, 3}));

  // Re-adding t4 restores the merged shard: its entry was not used by the
  // previous batch, so it passes the full structural guard, not the
  // provably-clean skip.
  ASSERT_TRUE(session.AddTriples({4}, &stats).ok());
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.dirty_shards, 0u);
  EXPECT_EQ(stats.clean_shards, 2u);
  ExpectByteIdentical(session.result(), OneShot({0, 1, 2, 3, 4}));
}

TEST_F(SessionDeltaTest, EmptyAndRedundantBatchesAreNoOps) {
  JoclSession session(dataset_, signals_);
  ASSERT_TRUE(session.AddTriples({0, 1, 2, 3}).ok());
  JoclResult before = session.result();

  SessionStats stats;
  ASSERT_TRUE(session.AddTriples({}, &stats).ok());
  EXPECT_EQ(stats.shards, 0u);  // Refresh never ran
  EXPECT_EQ(stats.added, 0u);
  ASSERT_TRUE(session.AddTriples({0, 2}, &stats).ok());  // already active
  EXPECT_EQ(stats.added, 0u);
  EXPECT_EQ(stats.shards, 0u);
  ASSERT_TRUE(session.RemoveTriples({4, 5}, &stats).ok());  // never active
  EXPECT_EQ(stats.removed, 0u);
  EXPECT_EQ(stats.shards, 0u);

  ExpectByteIdentical(session.result(), before);
  EXPECT_EQ(session.active_triples(), (std::vector<size_t>{0, 1, 2, 3}));
}

TEST_F(SessionDeltaTest, CandidateLookupCountersCountConsultedSurfaces) {
  // Every batch consults each active subject, object and predicate
  // surface once: a surface whose candidates were generated in an earlier
  // batch is a hit, a first-seen one a miss. Retiring a surface does not
  // forget its candidates, so re-adding it hits.
  JoclSession session(dataset_, signals_);
  SessionStats stats;
  // 3 subjects + 3 objects + 2 predicates ("lives in" is shared).
  ASSERT_TRUE(session.AddTriples({0, 1, 2}, &stats).ok());
  EXPECT_EQ(stats.problem_cache_hits, 0u);
  EXPECT_EQ(stats.problem_cache_misses, 8u);
  // t3/t5 bring 2 subjects, 2 objects and "works at"; the 8 old surfaces hit.
  ASSERT_TRUE(session.AddTriples({3, 5}, &stats).ok());
  EXPECT_EQ(stats.problem_cache_hits, 8u);
  EXPECT_EQ(stats.problem_cache_misses, 5u);
  // Retiring t3 leaves 4 subjects, 4 objects, 3 predicates, all known.
  ASSERT_TRUE(session.RemoveTriples({3}, &stats).ok());
  EXPECT_EQ(stats.problem_cache_hits, 11u);
  EXPECT_EQ(stats.problem_cache_misses, 0u);
  // "tim cook" / "apple inc" come back from retirement as hits.
  ASSERT_TRUE(session.AddTriples({3}, &stats).ok());
  EXPECT_EQ(stats.problem_cache_hits, 13u);
  EXPECT_EQ(stats.problem_cache_misses, 0u);
}

TEST_F(SessionDeltaTest, OutOfRangeIndexIsRejected) {
  JoclSession session(dataset_, signals_);
  ASSERT_TRUE(session.AddTriples({0}).ok());
  Status status = session.AddTriples({0, 99});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(session.active_triples(), (std::vector<size_t>{0}));
}

// ---------- O(Δ) front-end: byte-identity helper -----------------------------

::testing::AssertionResult PlansIdentical(const ShardPlan& a,
                                          const ShardPlan& b) {
  if (a.component_count != b.component_count)
    return ::testing::AssertionFailure() << "component counts differ";
  if (a.shards.size() != b.shards.size())
    return ::testing::AssertionFailure() << "shard counts differ";
  for (size_t s = 0; s < a.shards.size(); ++s) {
    const ProblemShard& x = a.shards[s];
    const ProblemShard& y = b.shards[s];
    ::testing::AssertionResult local = ProblemsIdentical(x.problem, y.problem);
    if (!local) return local << " in shard " << s;
    if (x.triple_map != y.triple_map ||
        x.subject_surface_map != y.subject_surface_map ||
        x.predicate_surface_map != y.predicate_surface_map ||
        x.object_surface_map != y.object_surface_map ||
        x.subject_pair_map != y.subject_pair_map ||
        x.predicate_pair_map != y.predicate_pair_map ||
        x.object_pair_map != y.object_pair_map)
      return ::testing::AssertionFailure() << "index maps differ in shard "
                                           << s;
  }
  return ::testing::AssertionSuccess();
}

/// Completes every shard body of a plan from MaterializeShardPlan, as
/// PartitionProblem does.
void MaterializeShardProblems(const JoclProblem& problem, ShardPlan* plan) {
  for (ProblemShard& shard : plan->shards) {
    MaterializeShardProblem(problem, &shard);
  }
}

// ---------- adversarial sequences × front-end threads ------------------------
//
// Each step mutates the session (adds, then removals) and asserts the
// session's problem is byte-identical to the from-scratch reference over
// the active set, and its result byte-identical to one-shot inference —
// for a sequential and a parallel front-end alike, with and without a
// pair cap that truncates.
// The sequences target the delta front-end's hard cases: a merge
// immediately undone, the active set emptied and rebuilt, and the same
// surfaces entering and leaving across consecutive batches.
struct ChurnStep {
  std::vector<size_t> add;
  std::vector<size_t> remove;
};

class SessionAdversarialTest : public SessionDeltaTest {
 protected:
  void RunSequence(const std::vector<ChurnStep>& steps) {
    for (size_t threads : {1u, 4u}) {
      // This world never reaches the default pair cap. A cap of one pair
      // per role truncates whenever two subject pairs are active, so the
      // sequences move in and out of the session's overflow path.
      for (size_t cap : {ProblemOptions().max_pairs_per_role, size_t{1}}) {
        JoclOptions options;
        options.problem.max_pairs_per_role = cap;
        RunSequence(steps, options, threads);
      }
    }
  }

  void RunSequence(const std::vector<ChurnStep>& steps,
                   const JoclOptions& options, size_t threads) {
    SessionOptions session_options;
    session_options.frontend_threads = threads;
    JoclSession session(dataset_, signals_, options, session_options);
    std::vector<size_t> active;
    for (size_t i = 0; i < steps.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " cap=" +
                   std::to_string(options.problem.max_pairs_per_role) +
                   " step=" + std::to_string(i));
      if (!steps[i].add.empty()) {
        ASSERT_TRUE(session.AddTriples(steps[i].add).ok());
        for (size_t t : steps[i].add) {
          if (std::find(active.begin(), active.end(), t) == active.end())
            active.push_back(t);
        }
      }
      if (!steps[i].remove.empty()) {
        ASSERT_TRUE(session.RemoveTriples(steps[i].remove).ok());
        for (size_t t : steps[i].remove) {
          active.erase(std::remove(active.begin(), active.end(), t),
                       active.end());
        }
      }
      std::sort(active.begin(), active.end());
      ASSERT_EQ(session.active_triples(), active);
      if (active.empty()) continue;  // nothing to compare against
      JoclProblem scratch =
          BuildScratchProblem(*dataset_, *signals_, active, options.problem);
      ASSERT_TRUE(ProblemsIdentical(session.problem(), scratch));
      ExpectByteIdentical(session.result(), OneShot(active, options));
    }
  }
};

TEST_F(SessionAdversarialTest, MergeThenSplitThenRemerge) {
  RunSequence({{{0, 1, 2, 3}, {}},  // three components
               {{4}, {}},           // bridge merges {t0,t1} and {t2}
               {{}, {4}},           // split back
               {{4}, {}},           // re-merge
               {{5}, {4}}});        // merge undone while another grows
}

TEST_F(SessionAdversarialTest, RemoveAllThenReAdd) {
  RunSequence({{{0, 1, 2, 3, 4, 5}, {}},
               {{}, {0, 1, 2, 3, 4, 5}},  // active set emptied
               {{0, 1, 2, 3, 4, 5}, {}},  // rebuilt from nothing
               {{}, {1, 3, 5}},
               {{1, 3, 5}, {}}});
}

TEST_F(SessionAdversarialTest, InterleavedChurnOfTheSameSurfaces) {
  // t0/t1 carry the paired "barack obama" / "obama barack" surfaces;
  // churning them exercises surface retire/revive and representative
  // (first-mention) changes, which shift pair emission order.
  RunSequence({{{0, 1, 2}, {}},
               {{}, {0}},    // t1's surface keeps the pair alive; rep moves
               {{0}, {1}},   // swap which mention carries the surface
               {{1}, {}},
               {{3, 4}, {0, 1}},  // drop the pair entirely mid-merge
               {{0, 1}, {}}});
}

// ---------- the reuse rule, exhaustively on a small world --------------------
//
// A clean shard is reused either through the provably-clean skip (no
// structural compare) or through the structural guard. Every sequence of
// four batches from a fixed menu — a removal that splits, a bridge add
// and its removal, an add that drops a pair inside a component, a removal
// that moves surface representatives, re-adding what the last batch
// removed, a weight swap, and an aging run of ten refreshes that evicts
// whatever the run leaves unused past the retention window —
// starts from the same prefilled session, and after every refresh the
// session must be byte-identical to a one-shot Infer over its active set.
// The counters show the walk drives both reuse paths, evicts entries, and
// takes the skip on entries the previous generation did not stamp: the
// skip needs no stamp, by the argument at the skip in session.cc.
class SessionReuseRuleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset();
    dataset_->name = "session-reuse-world";
    OpenKb& okb = dataset_->okb;
    // Components are wired by pairs of token-permuted surfaces; the test
    // caps blocking buckets at two surfaces. {t0, t1} is joined by a
    // subject and a predicate pair; t4 bridges it to {t2}; t5 joins {t3}.
    // Retiring t0 moves "lives in" to t2, which re-anchors the predicate
    // pair. t6 repeats surfaces of t3, t0 and t2, so it is a one-triple
    // component that adds no surface. t7's "barack h obama" overfills
    // both buckets of t0/t1's subject pair, which drops that pair but
    // keeps t0 and t1 joined: the same triples with a different body.
    for (const auto& [s, p, o] :
         std::vector<std::tuple<const char*, const char*, const char*>>{
             {"barack obama", "lives in", "washington dc"},
             {"obama barack", "in lives", "white house"},
             {"angela merkel", "lives in", "berlin city"},
             {"tim cook", "works at", "apple inc"},
             {"merkel angela", "visited", "dc washington"},
             {"cook tim", "works at", "cupertino hq"},
             {"tim cook", "lives in", "berlin city"},
             {"barack h obama", "founded", "cupertino hq"}}) {
      ASSERT_TRUE(okb.AddTriple(s, p, o).ok());
    }
    signals_ = new SignalBundle(BuildSignals(*dataset_).MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete signals_;
    delete dataset_;
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
};

Dataset* SessionReuseRuleTest::dataset_ = nullptr;
SignalBundle* SessionReuseRuleTest::signals_ = nullptr;

TEST_F(SessionReuseRuleTest, EveryShortSequenceMatchesOneShot) {
  enum Op { kSplit, kBridge, kUnbridge, kGrow, kMoveRep, kReAdd, kSwap, kAge };
  const char* kOpNames[] = {"split",  "bridge", "unbridge", "grow",
                            "moverep", "readd", "swap",     "age"};
  constexpr size_t kOps = 8;
  constexpr size_t kDepth = 4;

  JoclOptions options;
  options.problem.max_block_size = 2;
  RuntimeOptions one_thread;
  one_thread.num_threads = 1;
  SessionOptions session_options;
  session_options.num_threads = 1;
  session_options.frontend_threads = 1;
  const std::vector<double> weights[2] = {
      Jocl::DefaultWeights(), [] {
        std::vector<double> w = Jocl::DefaultWeights();
        for (double& x : w) x *= 1.5;
        return w;
      }()};
  // One-shot results, memoized by (weight set, active set).
  std::map<std::pair<size_t, std::vector<size_t>>, JoclResult> oneshot;
  auto expected = [&](size_t weight_set, const std::vector<size_t>& active)
      -> const JoclResult& {
    auto key = std::make_pair(weight_set, active);
    auto it = oneshot.find(key);
    if (it == oneshot.end()) {
      JoclResult result = JoclRuntime(options, one_thread)
                              .Infer(*dataset_, *signals_, active,
                                     weights[weight_set])
                              .MoveValueOrDie();
      it = oneshot.emplace(std::move(key), std::move(result)).first;
    }
    return it->second;
  };
  // The connected components of the session's current problem, as sets of
  // dataset triple ids: a store entry is stamped by a generation exactly
  // when its triple set is one of that generation's components.
  auto components = [](const JoclSession& session) {
    std::set<std::vector<size_t>> out;
    if (session.active_triples().empty()) return out;
    for (const ProblemShard& shard :
         PartitionProblem(session.problem(), 0).shards) {
      out.insert(shard.problem.triples);
    }
    return out;
  };

  size_t refreshes = 0, skips = 0, guarded = 0, stale_skips = 0;
  size_t evictions = 0;
  std::vector<size_t> sequence(kDepth, 0);
  for (size_t code = 0; code < 4096 && !HasFailure(); ++code) {
    // Sequence number `code`, in base kOps (4096 = kOps ^ kDepth).
    std::string trace;
    for (size_t i = 0, c = code; i < kDepth; ++i, c /= kOps) {
      sequence[i] = c % kOps;
      trace += std::string(i ? " " : "") + kOpNames[sequence[i]];
    }
    SCOPED_TRACE(trace);
    JoclSession session(dataset_, signals_, options, session_options);
    ASSERT_TRUE(session.AddTriples({0, 1, 2, 3}).ok());
    size_t weight_set = 0;
    std::vector<size_t> last_removed;
    std::set<std::vector<size_t>> previous = components(session);
    auto check = [&]() {
      ++refreshes;
      if (session.active_triples().empty()) return;
      ExpectByteIdentical(session.result(),
                          expected(weight_set, session.active_triples()));
    };
    // Applies one batch and, when it refreshed, counts how each clean
    // shard was reused and checks the result.
    auto batch = [&](bool add, const std::vector<size_t>& triples) {
      const size_t generation = session.generation();
      const size_t cached = session.cached_components();
      SessionStats stats;
      ASSERT_TRUE((add ? session.AddTriples(triples, &stats)
                       : session.RemoveTriples(triples, &stats))
                      .ok());
      if (session.generation() == generation) return;
      if (!add) last_removed = triples;
      if (session.cached_components() < cached) ++evictions;
      const std::set<std::vector<size_t>> current = components(session);
      size_t stamped = 0;
      for (const auto& component : current) stamped += previous.count(component);
      skips += stats.skipped_guards;
      guarded += stats.clean_shards - stats.skipped_guards;
      if (stats.skipped_guards > stamped) ++stale_skips;
      previous = current;
      check();
    };
    for (size_t i = 0; i < kDepth && !HasFailure(); ++i) {
      switch (sequence[i]) {
        case kSplit: batch(false, {1, 6}); break;
        case kBridge: batch(true, {4}); break;
        case kUnbridge: batch(false, {4}); break;
        case kGrow: batch(true, {5, 6, 7}); break;
        case kMoveRep: batch(false, {0}); break;
        case kReAdd: batch(true, last_removed); break;
        case kSwap: {
          weight_set ^= 1;
          const size_t generation = session.generation();
          ASSERT_TRUE(session.UpdateWeights(weights[weight_set]).ok());
          if (session.generation() != generation) check();
          break;
        }
        case kAge: {
          // Ten refreshes churning the highest active triple, which ends
          // where it started and outlasts the retention window.
          if (session.active_triples().empty()) break;
          const size_t churned = session.active_triples().back();
          for (size_t r = 0; r < 10; ++r) batch(r % 2 == 1, {churned});
          break;
        }
      }
    }
  }
  std::printf("%zu refreshes: %zu skipped guards (%zu batches skipped on "
              "entries the previous generation did not stamp), %zu guarded "
              "reuses, %zu evicting refreshes\n",
              refreshes, skips, stale_skips, guarded, evictions);
  EXPECT_GT(skips, 0u);
  EXPECT_GT(stale_skips, 0u);
  EXPECT_GT(guarded, 0u);
  EXPECT_GT(evictions, 0u);
}

// ---------- generated world: the acceptance bar ------------------------------

class SessionEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(
        GenerateReVerb45K(/*scale=*/0.25, /*seed=*/11).MoveValueOrDie());
    SignalOptions signal_options;
    signal_options.embedding_epochs = 2;
    signals_ = new SignalBundle(
        BuildSignals(*dataset_, signal_options).MoveValueOrDie());
    oneshot_ = new JoclResult(
        JoclRuntime()
            .Infer(*dataset_, *signals_, dataset_->test_triples)
            .MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete oneshot_;
    delete signals_;
    delete dataset_;
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
  /// The one-shot result over the test split.
  static JoclResult* oneshot_;
};

Dataset* SessionEquivalenceTest::dataset_ = nullptr;
SignalBundle* SessionEquivalenceTest::signals_ = nullptr;
JoclResult* SessionEquivalenceTest::oneshot_ = nullptr;

TEST_F(SessionEquivalenceTest, ColdRestartEquivalenceAcrossBatchCounts) {
  const std::vector<size_t>& stream = dataset_->test_triples;
  for (size_t k : {1u, 4u, 16u}) {
    JoclSession session(dataset_, signals_);
    for (size_t b = 0; b < k; ++b) {
      size_t begin = b * stream.size() / k;
      size_t end = (b + 1) * stream.size() / k;
      ASSERT_TRUE(session
                      .AddTriples(std::vector<size_t>(stream.begin() + begin,
                                                      stream.begin() + end))
                      .ok());
    }
    // Exact equality, not tolerance: the problem rebuild is deterministic
    // in the active set, per-component beliefs are pure functions of the
    // local problem, and the decode is global — no bit may differ.
    SCOPED_TRACE("K=" + std::to_string(k));
    ExpectByteIdentical(session.result(), *oneshot_);
  }
}

TEST_F(SessionEquivalenceTest, RemovalReachesTheSameStateAsNeverIngesting) {
  const std::vector<size_t>& stream = dataset_->test_triples;
  // Ingest everything in 4 batches, then retire the second quarter; the
  // session must land exactly where a one-shot run over the remaining
  // triples lands.
  JoclSession session(dataset_, signals_);
  for (size_t b = 0; b < 4; ++b) {
    size_t begin = b * stream.size() / 4;
    size_t end = (b + 1) * stream.size() / 4;
    ASSERT_TRUE(session
                    .AddTriples(std::vector<size_t>(stream.begin() + begin,
                                                    stream.begin() + end))
                    .ok());
  }
  std::vector<size_t> removed(stream.begin() + stream.size() / 4,
                              stream.begin() + stream.size() / 2);
  SessionStats stats;
  ASSERT_TRUE(session.RemoveTriples(removed, &stats).ok());
  EXPECT_EQ(stats.removed, removed.size());

  std::vector<size_t> remaining;
  for (size_t t : stream) {
    if (t < removed.front() || t > removed.back()) remaining.push_back(t);
  }
  JoclResult expected =
      JoclRuntime().Infer(*dataset_, *signals_, remaining).MoveValueOrDie();
  ExpectByteIdentical(session.result(), expected);
}

TEST_F(SessionEquivalenceTest, UnconvergedComponentsAreAPerBatchSignal) {
  // A one-sweep budget leaves components above the tolerance: the batch
  // reports them and bumps the shared counter. The default budget
  // converges every component and leaves the counter alone. The
  // certificate gauge tracks the latest result either way.
  MetricsRegistry& global = MetricsRegistry::Global();
  Counter* unconverged = global.AddCounter(
      "jocl_lbp_unconverged_components_total", "", "");
  Gauge* certificate = global.AddGauge("jocl_lbp_certificate", "", "");
  const std::vector<size_t>& stream = dataset_->test_triples;

  JoclOptions one_sweep;
  one_sweep.inference.max_iterations = 1;
  JoclSession starved(dataset_, signals_, one_sweep);
  SessionStats stats;
  uint64_t before = unconverged->Value();
  ASSERT_TRUE(starved.AddTriples(stream, &stats).ok());
  EXPECT_GT(stats.unconverged_components, 0u);
  EXPECT_EQ(unconverged->Value() - before, stats.unconverged_components);
  EXPECT_EQ(starved.result().diagnostics.unconverged_components,
            stats.unconverged_components);
  EXPECT_FALSE(starved.result().diagnostics.converged);
  EXPECT_EQ(certificate->DoubleValue(),
            starved.result().diagnostics.final_residual);

  JoclSession session(dataset_, signals_);
  before = unconverged->Value();
  ASSERT_TRUE(session.AddTriples(stream, &stats).ok());
  EXPECT_EQ(stats.unconverged_components, 0u);
  EXPECT_EQ(unconverged->Value(), before);
  EXPECT_TRUE(session.result().diagnostics.converged);
  EXPECT_EQ(certificate->DoubleValue(),
            session.result().diagnostics.final_residual);
  EXPECT_LT(certificate->DoubleValue(), JoclOptions().inference.tolerance);
}

TEST_F(SessionEquivalenceTest, IncrementalFrontEndMatchesScratchUnderChurn) {
  // Property test of the O(Δ) problem front end against the from-scratch
  // reference on a generated world: over a seeded random add/remove walk,
  // after every batch the memoized ProblemBuilder must emit the same
  // problem as BuildScratchProblem, and the plan materialized from its
  // component labels must be byte-identical to PartitionProblem — for a
  // sequential and a parallel front end alike. The walk admits at most
  // ~160 pairs per role, far below the default cap. A cap of 10 truncates
  // every batch; a cap of 150 truncates only the batches where the object
  // role peaks, so the walk crosses it in both directions.
  const std::vector<size_t>& stream = dataset_->test_triples;
  for (size_t cap : {ProblemOptions().max_pairs_per_role, size_t{10},
                     size_t{150}}) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE("cap=" + std::to_string(cap) +
                   " threads=" + std::to_string(threads));
      ProblemOptions options = JoclOptions().problem;
      options.max_pairs_per_role = cap;
      ProblemBuilder builder(dataset_, signals_, options);
      std::vector<uint8_t> in_active(dataset_->okb.size(), 0);
      std::vector<size_t> active;
      std::mt19937 rng(17);
      size_t compared_steps = 0;
      size_t overflow_steps = 0;
      for (size_t step = 0; step < 10; ++step) {
        SCOPED_TRACE("step=" + std::to_string(step));
        // Toggle a random slice of the stream: first steps are add-heavy,
        // later ones mix removals of long-active triples back in.
        std::vector<size_t> added;
        std::vector<size_t> removed;
        std::vector<uint8_t> touched(dataset_->okb.size(), 0);
        const size_t slice = 1 + rng() % (stream.size() / 3);
        for (size_t i = 0; i < slice; ++i) {
          const size_t t = stream[rng() % stream.size()];
          if (touched[t]) continue;  // added/removed must stay disjoint
          touched[t] = 1;
          if (!in_active[t]) {
            in_active[t] = 1;
            added.push_back(t);
          } else if (step >= 3) {
            in_active[t] = 0;
            removed.push_back(t);
          }
        }
        std::sort(added.begin(), added.end());
        added.erase(std::unique(added.begin(), added.end()), added.end());
        std::sort(removed.begin(), removed.end());
        removed.erase(std::unique(removed.begin(), removed.end()),
                      removed.end());
        active.clear();
        for (size_t t = 0; t < in_active.size(); ++t) {
          if (in_active[t]) active.push_back(t);
        }
        if (active.empty()) continue;

        JoclProblem problem;
        FrontEndDelta delta;
        builder.Apply(added, removed, active, threads, &problem, &delta);
        JoclProblem scratch =
            BuildScratchProblem(*dataset_, *signals_, active, options);
        ASSERT_TRUE(ProblemsIdentical(problem, scratch));

        ++compared_steps;
        if (delta.overflow) ++overflow_steps;
        std::vector<size_t> comp_of_triple;
        std::vector<size_t> comp_weight;
        ComputeProblemComponents(problem, &comp_of_triple, &comp_weight);
        ShardPlan incremental;
        MaterializeShardPlan(problem, comp_of_triple, comp_weight,
                             /*max_shards=*/0, &incremental);
        MaterializeShardProblems(problem, &incremental);
        ASSERT_TRUE(
            PlansIdentical(incremental, PartitionProblem(scratch, 0)));
      }
      if (cap == 150) {
        EXPECT_GT(overflow_steps, 0u);
        EXPECT_LT(overflow_steps, compared_steps);
      }
    }
  }
}

TEST_F(SessionEquivalenceTest, SeededRandomWalkMatchesOneShotAtEveryStep) {
  // A long seeded walk of adds, retracts, re-adds of the last retract and
  // small tail adds, with one weight swap midway. After every step the
  // session must be byte-identical to a one-shot Infer over its active
  // set under its current weights. With a pair cap of 150 the walk moves
  // in and out of the truncating (overflow) path, so the provably-clean
  // skip stands down and resumes; the counters show that it runs both
  // reuse paths and crosses overflow in both directions.
  const std::vector<size_t>& stream = dataset_->test_triples;
  const ProblemOptions uncapped = JoclOptions().problem;
  std::vector<double> swapped = Jocl::DefaultWeights();
  for (double& w : swapped) w *= 1.5;
  constexpr size_t kSteps = 30;
  constexpr size_t kSwapStep = 15;
  for (size_t cap : {uncapped.max_pairs_per_role, size_t{150}}) {
    SCOPED_TRACE("cap=" + std::to_string(cap));
    JoclOptions options;
    options.problem.max_pairs_per_role = cap;
    JoclSession session(dataset_, signals_, options);
    std::mt19937 rng(5);
    std::vector<uint8_t> in_active(dataset_->okb.size(), 0);
    std::vector<size_t> last_removed;
    size_t skips = 0, guarded = 0, overflow_steps = 0;
    size_t entered_overflow = 0, left_overflow = 0;
    bool was_overflow = false;
    for (size_t step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step=" + std::to_string(step));
      SessionStats stats;
      const size_t active_before = session.active_triples().size();
      // Stream triples drawn at random, keeping those whose activity
      // matches \p active_wanted.
      auto draw = [&](size_t count, bool active_wanted) {
        std::vector<size_t> batch;
        for (size_t i = 0; i < count; ++i) {
          const size_t t = stream[rng() % stream.size()];
          if (static_cast<bool>(in_active[t]) == active_wanted) {
            batch.push_back(t);
          }
        }
        return batch;
      };
      enum Op { kAdd, kRetract, kReAdd, kTailAdd, kSwap };
      const Op op = step == kSwapStep ? kSwap : static_cast<Op>(rng() % 4);
      std::vector<size_t> batch;
      bool add = true;
      switch (op) {
        case kAdd: batch = draw(1 + rng() % (stream.size() / 3), false); break;
        case kRetract:
          batch = draw(1 + rng() % (active_before / 2 + 1), true);
          add = false;
          break;
        case kReAdd: batch = last_removed; break;
        case kTailAdd: batch = draw(9, false); break;
        case kSwap: ASSERT_TRUE(session.UpdateWeights(swapped, &stats).ok());
      }
      if (op != kSwap) {
        ASSERT_TRUE((add ? session.AddTriples(batch, &stats)
                         : session.RemoveTriples(batch, &stats))
                        .ok());
        for (size_t t : batch) in_active[t] = add ? 1 : 0;
        if (!add) last_removed = batch;
      }
      const std::vector<size_t>& active = session.active_triples();
      if (active.empty()) continue;
      skips += stats.skipped_guards;
      guarded += stats.clean_shards - stats.skipped_guards;
      // The batch truncated iff some role admits more pairs than the cap.
      const JoclProblem full =
          BuildProblem(*dataset_, *signals_, active, uncapped);
      const bool overflow =
          std::max({full.subject_pairs.size(), full.predicate_pairs.size(),
                    full.object_pairs.size()}) > cap;
      overflow_steps += overflow ? 1 : 0;
      entered_overflow += overflow && !was_overflow ? 1 : 0;
      left_overflow += !overflow && was_overflow ? 1 : 0;
      was_overflow = overflow;
      ExpectByteIdentical(
          session.result(),
          JoclRuntime(options)
              .Infer(*dataset_, *signals_, active, session.weights())
              .MoveValueOrDie());
    }
    std::printf("cap %zu: %zu skipped guards, %zu guarded reuses, %zu "
                "overflow steps (entered %zu, left %zu times)\n",
                cap, skips, guarded, overflow_steps, entered_overflow,
                left_overflow);
    EXPECT_GT(skips, 0u);
    EXPECT_GT(guarded, 0u);
    if (cap == 150) {
      EXPECT_GT(entered_overflow, 0u);
      EXPECT_GT(left_overflow, 0u);
    } else {
      EXPECT_EQ(overflow_steps, 0u);
    }
  }
}

TEST_F(SessionEquivalenceTest, StaleComponentsAreEvicted) {
  // A session that ingested the first half A, then the second half B, and
  // then retired A serves B alone. Refreshes over B never use a component
  // that holds a triple of A. After more than 8 of them none may still be
  // cached: the store must equal that of a session that never saw A, and
  // re-adding A must cost both sessions the same. After fewer, the whole
  // A ∪ B partition is still cached and re-adding A re-infers nothing.
  const std::vector<size_t>& stream = dataset_->test_triples;
  const std::vector<size_t> a(stream.begin(),
                              stream.begin() + stream.size() / 2);
  const std::vector<size_t> b(stream.begin() + stream.size() / 2,
                              stream.end());
  const JoclResult& oneshot = *oneshot_;
  // Retires and restores one triple of B, \p refreshes times (an even
  // count ends with B whole).
  auto churn_b = [&](JoclSession* session, size_t refreshes) {
    for (size_t i = 0; i < refreshes; ++i) {
      Status status = i % 2 == 0 ? session->RemoveTriples({b.back()})
                                 : session->AddTriples({b.back()});
      ASSERT_TRUE(status.ok());
    }
  };
  for (size_t refreshes : {size_t{4}, size_t{10}}) {
    SCOPED_TRACE(std::to_string(refreshes) + " refreshes over B");
    JoclSession saw_a(dataset_, signals_);
    ASSERT_TRUE(saw_a.AddTriples(a).ok());
    ASSERT_TRUE(saw_a.AddTriples(b).ok());
    ASSERT_TRUE(saw_a.RemoveTriples(a).ok());
    churn_b(&saw_a, refreshes);
    JoclSession never_a(dataset_, signals_);
    ASSERT_TRUE(never_a.AddTriples(b).ok());
    churn_b(&never_a, refreshes);

    const size_t saw_cached = saw_a.cached_components();
    const size_t never_cached = never_a.cached_components();
    SessionStats saw_stats, never_stats;
    ASSERT_TRUE(saw_a.AddTriples(a, &saw_stats).ok());
    ASSERT_TRUE(never_a.AddTriples(a, &never_stats).ok());
    ExpectByteIdentical(saw_a.result(), oneshot);
    ExpectByteIdentical(never_a.result(), oneshot);
    EXPECT_GT(never_stats.dirty_shards, 0u);
    if (refreshes > 8) {
      EXPECT_EQ(saw_cached, never_cached);
      EXPECT_EQ(saw_stats.dirty_shards, never_stats.dirty_shards);
      EXPECT_EQ(saw_stats.clean_shards, never_stats.clean_shards);
    } else {
      EXPECT_GT(saw_cached, never_cached);
      EXPECT_EQ(saw_stats.dirty_shards, 0u);
    }
  }
}

TEST_F(SessionEquivalenceTest, LargestClusterGaugesTrackTheLatestDecode) {
  // jocl_decode_largest_cluster{kind=...}: mentions in the largest NP / RP
  // cluster of the latest result, set by the session and the runtime.
  MetricsRegistry& global = MetricsRegistry::Global();
  Gauge* np = global.AddGauge("jocl_decode_largest_cluster", "kind=\"np\"",
                              "");
  Gauge* rp = global.AddGauge("jocl_decode_largest_cluster", "kind=\"rp\"",
                              "");
  auto largest = [](const std::vector<size_t>& labels) {
    std::vector<int64_t> size(labels.size(), 0);
    for (size_t label : labels) ++size[label];
    return *std::max_element(size.begin(), size.end());
  };
  const std::vector<size_t>& stream = dataset_->test_triples;
  JoclSession session(dataset_, signals_);
  ASSERT_TRUE(session.AddTriples(stream).ok());
  EXPECT_EQ(np->Value(), largest(session.result().np_cluster));
  EXPECT_EQ(rp->Value(), largest(session.result().rp_cluster));
  EXPECT_GT(rp->Value(), 1);

  const std::vector<size_t> half(stream.begin(),
                                 stream.begin() + stream.size() / 2);
  const JoclResult result =
      JoclRuntime().Infer(*dataset_, *signals_, half).MoveValueOrDie();
  EXPECT_EQ(np->Value(), largest(result.np_cluster));
  EXPECT_EQ(rp->Value(), largest(result.rp_cluster));
}

TEST_F(SessionEquivalenceTest, ShrinkingAndRegrowingShardCountsStayExact) {
  // The session refills its shard plan and problem in place, batch after
  // batch. Shrink the active set (fewer shards, shorter surface and pair
  // lists), regrow it, and shrink it differently: every state must still
  // equal a one-shot Infer, so no recycled field can leak.
  const std::vector<size_t>& stream = dataset_->test_triples;
  std::vector<size_t> thirds[3];
  for (size_t i = 0; i < stream.size(); ++i) thirds[i % 3].push_back(stream[i]);
  auto one_shot = [&](const std::vector<size_t>& triples) {
    return JoclRuntime().Infer(*dataset_, *signals_, triples).MoveValueOrDie();
  };
  JoclSession session(dataset_, signals_);
  SessionStats full_stats, shrunk_stats, regrown_stats;
  ASSERT_TRUE(session.AddTriples(stream, &full_stats).ok());
  ASSERT_TRUE(session.RemoveTriples(thirds[0], &shrunk_stats).ok());
  ASSERT_TRUE(session.RemoveTriples(thirds[1], &shrunk_stats).ok());
  EXPECT_LT(shrunk_stats.shards, full_stats.shards);
  ExpectByteIdentical(session.result(), one_shot(session.active_triples()));
  ASSERT_TRUE(session.AddTriples(thirds[0], &regrown_stats).ok());
  ASSERT_TRUE(session.AddTriples(thirds[1], &regrown_stats).ok());
  EXPECT_EQ(regrown_stats.shards, full_stats.shards);
  ExpectByteIdentical(session.result(), *oneshot_);
  ASSERT_TRUE(session.RemoveTriples(thirds[2]).ok());
  ExpectByteIdentical(session.result(), one_shot(session.active_triples()));
}

TEST_F(SessionEquivalenceTest, InPlacePlanEqualsAFreshPlan) {
  // A plan recycled from another problem's complete plan (bodies filled)
  // must equal a fresh plan, index maps only and with every body
  // materialized.
  const std::vector<size_t>& stream = dataset_->test_triples;
  const std::vector<size_t> half(stream.begin(),
                                 stream.begin() + stream.size() / 2);
  const JoclProblem small = BuildProblem(*dataset_, *signals_, half);
  const JoclProblem full = BuildProblem(*dataset_, *signals_, stream);
  std::vector<size_t> comp_of_triple, comp_weight;
  ComputeProblemComponents(full, &comp_of_triple, &comp_weight);
  for (bool bodies : {false, true}) {
    for (size_t max_shards : {size_t{0}, size_t{3}}) {
      SCOPED_TRACE(std::string(bodies ? "bodies" : "index maps") +
                   ", max_shards " + std::to_string(max_shards));
      ShardPlan recycled = PartitionProblem(small, /*max_shards=*/0);
      MaterializeShardPlan(full, comp_of_triple, comp_weight, max_shards,
                           &recycled);
      ShardPlan fresh;
      MaterializeShardPlan(full, comp_of_triple, comp_weight, max_shards,
                           &fresh);
      if (bodies) {
        MaterializeShardProblems(full, &recycled);
        MaterializeShardProblems(full, &fresh);
      }
      EXPECT_TRUE(PlansIdentical(recycled, fresh));
    }
  }
}

// ---------- allocation budget of a steady-state tail refresh -----------------
//
// One 9-triple tail add and its retract on a scale-0.35 session, after
// two warm-up cycles. Everything runs on this thread (one thread for the
// shards and the front end), where the replaced operator new counts.
// Before the decode went flat and the front end started recycling its
// storage (hash-map decode, a fresh plan and problem every batch,
// map-based partition labels), this cycle made 21,422 allocations; now it
// makes about 800. The budget is a quarter of the old count.
TEST(SessionAllocationTest, SteadyStateTailCycleStaysUnderBudget) {
  constexpr uint64_t kBudget = 21422 / 4;
  const Dataset dataset =
      GenerateReVerb45K(/*scale=*/0.35, /*seed=*/7).MoveValueOrDie();
  SignalOptions signal_options;
  signal_options.embedding_epochs = 2;
  const SignalBundle signals =
      BuildSignals(dataset, signal_options).MoveValueOrDie();
  const std::vector<size_t> tail =
      ChooseTailBatch(dataset, signals, dataset.test_triples, 9);
  ASSERT_EQ(tail.size(), 9u);
  std::vector<size_t> prefill;
  std::set_difference(dataset.test_triples.begin(),
                      dataset.test_triples.end(), tail.begin(), tail.end(),
                      std::back_inserter(prefill));

  SessionOptions session_options;
  session_options.num_threads = 1;
  session_options.frontend_threads = 1;
  JoclSession session(&dataset, &signals, {}, session_options);
  ASSERT_TRUE(session.AddTriples(prefill).ok());
  for (int warm_up = 0; warm_up < 2; ++warm_up) {
    ASSERT_TRUE(session.AddTriples(tail).ok());
    ASSERT_TRUE(session.RemoveTriples(tail).ok());
  }
  const uint64_t before = g_thread_allocations;
  SessionStats add_stats, retract_stats;
  ASSERT_TRUE(session.AddTriples(tail, &add_stats).ok());
  ASSERT_TRUE(session.RemoveTriples(tail, &retract_stats).ok());
  const uint64_t allocations = g_thread_allocations - before;
  // A tail batch re-infers only the components it touches.
  EXPECT_LE(add_stats.dirty_shards, tail.size());
  EXPECT_LE(retract_stats.dirty_shards, tail.size());
  EXPECT_LE(allocations, kBudget)
      << "a steady-state tail add + retract made " << allocations
      << " heap allocations";
}

}  // namespace
}  // namespace jocl

#ifndef JOCL_CORE_PROBLEM_BUILDER_H_
#define JOCL_CORE_PROBLEM_BUILDER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/problem.h"

namespace jocl {

/// \brief One batch's emission changes in *stable* identifiers — the
/// problem builder's persistent per-role surface ids — which the session's
/// provably-clean shard skip maps to the components they can touch. Roles
/// are indexed 0 = subject, 1 = predicate, 2 = object.
struct FrontEndDelta {
  /// True when `max_pairs_per_role` truncated an admitted pair set. The
  /// emitted problem is still exact, but which pairs survive the cap
  /// depends on global similarity rank, so the pair events below (which
  /// always describe the *untruncated* admitted set) do not announce every
  /// emission change, and the session must not skip its reuse guard.
  bool overflow = false;

  /// Surfaces whose representative (first active mention) changed this
  /// batch, entering and leaving the active set included; ascending.
  std::array<std::vector<uint32_t>, 3> surface_events;

  /// Admitted-pair transitions, packed as (lo_sid << 32) | hi_sid. A pair
  /// that stays admitted but flips its candidate-blocked tag is announced
  /// as added again.
  struct PairEvents {
    std::vector<uint64_t> added;
    std::vector<uint64_t> removed;
  };
  std::array<PairEvents, 3> pair_events;
};

/// \brief The problem front end: maintains the mention, blocking-bucket
/// and pair-variable state of the active triple set across ingestion
/// batches, so each batch pays for its *delta* plus a cheap O(active)
/// emission of the output arrays — no re-tokenization, no re-similarity,
/// no candidate generation for surfaces it has seen. Sessions keep one
/// builder for their lifetime; `BuildProblem` runs one batch on a fresh
/// builder.
///
/// **Byte-identity contract.** For any batch sequence reaching an active
/// set A, `Apply` emits a `JoclProblem` byte-identical to the from-scratch
/// reference `BuildScratchProblem(dataset, signals, A, options)` in
/// tests/scratch_problem.h, which dedups surfaces and blocks pairs in one
/// stateless pass (property-tested in tests/session_test.cc and
/// tests/core_test.cc). The invariants that make this hold:
///
///  * Surfaces, reps and candidate lists are pure functions of A
///    (first-appearance order over ascending triple ids).
///  * A pair is admitted iff it co-occurs in a qualifying token bucket
///    with IDF similarity >= threshold, or shares a PPDB / top-candidate
///    bucket of active size in [2, max_block_size]. The builder keeps
///    per-pair reference counts per bucket family, updated by bucket
///    membership transitions (including cap crossings), so "admitted" is
///    a pure function of the final active set.
///  * `IdfTable::Similarity` iterates unordered sets, so its value can
///    differ bitwise under argument swap; the reference always calls it
///    with the lower-ranked surface first, and ranks change across
///    batches. The builder memoizes *both* orientations per pair and
///    emits the one matching the current batch's rank order.
///  * The final (idf desc, a, b) sort + cap + (a, b) re-sort are total
///    orders over unique keys, so emission order is irrelevant.
///
/// The builder also emits the batch's `FrontEndDelta` (stable surface
/// ids + admitted-pair transitions) for the session's reuse skip, and
/// counts candidate lookups: every emission consults each active
/// surface once per role, and a consultation is a miss the first time
/// the builder ever consults that surface and a hit every later time.
/// Counting happens on the calling thread only, so the parallel
/// candidate prefill cannot double-count.
class ProblemBuilder {
 public:
  /// \p dataset and \p signals must outlive the builder.
  ProblemBuilder(const Dataset* dataset, const SignalBundle* signals,
                 const ProblemOptions& options);

  /// Applies one batch. \p added / \p removed are disjoint sorted dataset
  /// triple ids, each < dataset.okb.size(); \p active is the post-update
  /// active set (sorted). Emits the full problem over \p active into
  /// \p problem, overwriting every field in place (a session passes its
  /// previous problem back in, so strings and candidate lists reuse their
  /// storage), and the batch's stable-id delta into \p delta (cleared
  /// first). \p threads > 1 fans candidate generation and
  /// similarity evaluation out on the worker pool; the result is
  /// byte-identical for any thread count.
  void Apply(const std::vector<size_t>& added,
             const std::vector<size_t>& removed,
             const std::vector<size_t>& active, size_t threads,
             JoclProblem* problem, FrontEndDelta* delta);

  // -- batch introspection (valid until the next Apply) ----------------------

  /// Surface ids first interned by the last Apply, in discovery order —
  /// what the session's delta signal-cache registration walks.
  const std::vector<uint32_t>& new_np_sids() const { return new_np_sids_; }
  const std::vector<uint32_t>& new_rp_sids() const { return new_rp_sids_; }

  const std::string& np_surface(uint32_t sid) const {
    return np_meta_[sid].surface;
  }
  const std::string& rp_surface(uint32_t sid) const {
    return rp_meta_[sid].surface;
  }
  const std::vector<EntityCandidate>& np_candidates(uint32_t sid) const {
    return np_meta_[sid].candidates;
  }
  const std::vector<RelationCandidate>& rp_candidates(uint32_t sid) const {
    return rp_meta_[sid].candidates;
  }

  /// Sorted active dataset-triple mentions of one surface (empty when
  /// retired). Role indices match FrontEndDelta: 0 = subject,
  /// 1 = predicate, 2 = object. The session maps delta events to the
  /// components they can affect through these lists.
  const std::vector<size_t>& mentions(size_t role, uint32_t sid) const {
    return roles_[role].mentions[sid];
  }

  /// Candidate lookups of the last Apply (see the class comment).
  size_t candidate_hits() const { return candidate_hits_; }
  size_t candidate_misses() const { return candidate_misses_; }

 private:
  static constexpr size_t kSubject = 0;
  static constexpr size_t kPredicate = 1;
  static constexpr size_t kObject = 2;

  /// Immutable per-surface facts, computed once at intern time (the
  /// candidate lists are the expensive part; they fan out on the pool).
  struct NpMeta {
    std::string surface;
    std::vector<std::pair<std::string, uint32_t>> tokens;  ///< non-stop, mult.
    std::optional<std::string> ppdb_rep;
    std::vector<EntityCandidate> candidates;
    std::vector<int64_t> blocking_ids;  ///< top-k candidate entity ids
    bool consulted = false;             ///< counted as a miss already
  };
  struct RpMeta {
    std::string surface;
    std::vector<std::pair<std::string, uint32_t>> tokens;
    std::optional<std::string> ppdb_rep;
    std::vector<RelationCandidate> candidates;
    bool consulted = false;
  };

  /// One blocking bucket: active members with occurrence counts (token
  /// buckets count token multiplicity inside a phrase, like the
  /// reference's per-occurrence membership; PPDB/candidate buckets are 0/1).
  struct Bucket {
    std::unordered_map<uint32_t, uint32_t> occ;
    size_t size = 0;  ///< sum of occurrence counts (the cap is on this)
  };

  static constexpr int kTokenRefs = 0;
  static constexpr int kPpdbRefs = 1;
  static constexpr int kCandRefs = 2;

  /// Persistent pair-variable record. Lives in the slab forever once
  /// created (the memoized similarities are the point); `live` indexes
  /// recs with any positive refs or a pending removal event.
  struct PairRec {
    uint32_t lo = 0, hi = 0;  ///< surface ids, lo < hi
    int32_t refs[3] = {0, 0, 0};
    /// Similarity(surface(lo), surface(hi)) / the swapped call; NaN unset.
    double sim_lo_first = std::numeric_limits<double>::quiet_NaN();
    double sim_hi_first = std::numeric_limits<double>::quiet_NaN();
    bool admitted_prev = false;
    /// candidate_blocked as last emitted (only meaningful while
    /// admitted_prev). A flag flip without an admission change still
    /// alters the emitted SurfacePair, so it raises a (redundant-edge)
    /// pair event — the session's provably-clean shard skip depends on
    /// every emission change being announced.
    bool blocked_prev = false;
    bool in_live = false;
  };

  /// Mutable per-role blocking state over one surface-id space.
  struct RoleState {
    std::vector<std::vector<size_t>> mentions;  ///< sorted active triples/sid
    std::unordered_map<std::string, Bucket> token_buckets;
    std::unordered_map<std::string, Bucket> ppdb_buckets;
    std::unordered_map<int64_t, Bucket> cand_buckets;  ///< NP roles only
    std::vector<PairRec> slab;
    std::unordered_map<uint64_t, size_t> pair_index;
    std::vector<size_t> live;
    // Rank assignment epoch arrays (per-batch first-appearance order).
    std::vector<uint32_t> rank_of;
    std::vector<uint32_t> rank_epoch;
    uint32_t epoch = 0;
  };

  uint32_t InternNp(const std::string& phrase);
  uint32_t InternRp(const std::string& phrase);
  void EnsureTripleInterned(size_t t);
  void PrepareNewSurfaces(size_t threads);
  bool IsNpRole(size_t role) const { return role != kPredicate; }
  const std::string& SurfaceOf(size_t role, uint32_t sid) const {
    return IsNpRole(role) ? np_meta_[sid].surface : rp_meta_[sid].surface;
  }

  void BumpRef(RoleState& state, uint32_t a, uint32_t b, int which,
               int32_t delta);
  void AddToBucket(RoleState& state, Bucket& bucket, uint32_t sid, uint32_t k,
                   int which);
  void RemoveFromBucket(RoleState& state, Bucket& bucket, uint32_t sid,
                        int which);
  void RescoreBucket(RoleState& state, const Bucket& bucket, int which,
                     int32_t sign);
  void ActivateSurface(size_t role, uint32_t sid);
  void DeactivateSurface(size_t role, uint32_t sid);

  void EmitRole(size_t role, const std::vector<size_t>& active,
                size_t threads, std::vector<std::string>* surfaces,
                std::vector<size_t>* of, std::vector<size_t>* rep,
                std::vector<SurfacePair>* pairs, FrontEndDelta* delta,
                std::vector<uint32_t>* by_rank);

  const Dataset* dataset_;
  const SignalBundle* signals_;
  ProblemOptions options_;

  std::unordered_map<std::string, uint32_t> np_index_;
  std::unordered_map<std::string, uint32_t> rp_index_;
  std::vector<NpMeta> np_meta_;
  std::vector<RpMeta> rp_meta_;
  /// (subject np sid, rp sid, object np sid) per dataset triple,
  /// interned lazily on first activation.
  std::vector<std::array<uint32_t, 3>> sid_of_triple_;
  std::vector<uint8_t> triple_interned_;

  RoleState roles_[3];

  std::vector<uint32_t> new_np_sids_;
  std::vector<uint32_t> new_rp_sids_;
  size_t candidate_hits_ = 0;
  size_t candidate_misses_ = 0;
};

}  // namespace jocl

#endif  // JOCL_CORE_PROBLEM_BUILDER_H_

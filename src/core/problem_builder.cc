#include "core/problem_builder.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "text/tokenizer.h"
#include "util/worker_pool.h"

namespace jocl {
namespace {

/// Representative of a surface with no active mention.
constexpr size_t kNoRep = static_cast<size_t>(-1);

uint64_t PackPair(uint32_t lo, uint32_t hi) {
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

/// Non-stop tokens of a phrase with multiplicity, first-occurrence order.
/// The reference blocking (tests/scratch_problem.h) pushes the surface
/// into a token's bucket once per *occurrence* (Tokenize keeps
/// duplicates), and the bucket-size cap counts those occurrences — so
/// multiplicity is part of the contract.
std::vector<std::pair<std::string, uint32_t>> GroupTokens(
    const std::string& phrase) {
  std::vector<std::pair<std::string, uint32_t>> grouped;
  const auto& stop = StopWords();
  std::unordered_map<std::string, size_t> at;
  for (auto& token : Tokenize(phrase)) {
    if (stop.count(token) > 0) continue;
    auto [it, inserted] = at.emplace(token, grouped.size());
    if (inserted) {
      grouped.emplace_back(std::move(token), 1);
    } else {
      ++grouped[it->second].second;
    }
  }
  return grouped;
}

}  // namespace

ProblemBuilder::ProblemBuilder(const Dataset* dataset,
                               const SignalBundle* signals,
                               const ProblemOptions& options)
    : dataset_(dataset), signals_(signals), options_(options) {
  sid_of_triple_.resize(dataset_->okb.size());
  triple_interned_.resize(dataset_->okb.size(), 0);
}

uint32_t ProblemBuilder::InternNp(const std::string& phrase) {
  auto it = np_index_.find(phrase);
  if (it != np_index_.end()) return it->second;
  uint32_t sid = static_cast<uint32_t>(np_meta_.size());
  np_meta_.emplace_back();
  NpMeta& meta = np_meta_.back();
  meta.surface = phrase;
  np_index_.emplace(phrase, sid);
  for (size_t role : {kSubject, kObject}) {
    roles_[role].mentions.emplace_back();
    roles_[role].rank_of.push_back(0);
    roles_[role].rank_epoch.push_back(0);
  }
  new_np_sids_.push_back(sid);
  return sid;
}

uint32_t ProblemBuilder::InternRp(const std::string& phrase) {
  auto it = rp_index_.find(phrase);
  if (it != rp_index_.end()) return it->second;
  uint32_t sid = static_cast<uint32_t>(rp_meta_.size());
  rp_meta_.emplace_back();
  RpMeta& meta = rp_meta_.back();
  meta.surface = phrase;
  rp_index_.emplace(phrase, sid);
  roles_[kPredicate].mentions.emplace_back();
  roles_[kPredicate].rank_of.push_back(0);
  roles_[kPredicate].rank_epoch.push_back(0);
  new_rp_sids_.push_back(sid);
  return sid;
}

void ProblemBuilder::EnsureTripleInterned(size_t t) {
  if (triple_interned_[t]) return;
  const OieTriple& triple = dataset_->okb.triple(t);
  sid_of_triple_[t] = {InternNp(triple.subject), InternRp(triple.predicate),
                       InternNp(triple.object)};
  triple_interned_[t] = 1;
}

void ProblemBuilder::PrepareNewSurfaces(size_t threads) {
  // Fan the per-surface pure work (tokenize, PPDB lookup, candidate
  // generation, blocking ids) out on the pool into disjoint meta slots.
  const size_t n_np = new_np_sids_.size();
  const size_t total = n_np + new_rp_sids_.size();
  if (total == 0) return;
  const bool want_ppdb =
      options_.side_info_blocking && signals_->ppdb != nullptr;
  RunOnPool(
      total, threads, [](size_t) { return size_t{1}; },
      [&](size_t i) {
        if (i < n_np) {
          NpMeta& meta = np_meta_[new_np_sids_[i]];
          meta.tokens = GroupTokens(meta.surface);
          if (want_ppdb) {
            meta.ppdb_rep = signals_->ppdb->Representative(meta.surface);
          }
          meta.candidates = dataset_->ckb.EntityCandidates(
              meta.surface, options_.max_candidates);
          const size_t top = std::min(options_.blocking_candidates,
                                      meta.candidates.size());
          meta.blocking_ids.reserve(top);
          for (size_t c = 0; c < top; ++c) {
            meta.blocking_ids.push_back(meta.candidates[c].id);
          }
        } else {
          RpMeta& meta = rp_meta_[new_rp_sids_[i - n_np]];
          meta.tokens = GroupTokens(meta.surface);
          if (want_ppdb) {
            meta.ppdb_rep = signals_->ppdb->Representative(meta.surface);
          }
          meta.candidates = dataset_->ckb.RelationCandidates(
              meta.surface, options_.max_candidates);
        }
      });
}

void ProblemBuilder::BumpRef(RoleState& state, uint32_t a, uint32_t b,
                             int which, int32_t delta) {
  if (a == b || delta == 0) return;
  uint32_t lo = std::min(a, b);
  uint32_t hi = std::max(a, b);
  auto [it, inserted] = state.pair_index.emplace(PackPair(lo, hi),
                                                 state.slab.size());
  if (inserted) {
    state.slab.emplace_back();
    state.slab.back().lo = lo;
    state.slab.back().hi = hi;
  }
  PairRec& rec = state.slab[it->second];
  rec.refs[which] += delta;
  if (!rec.in_live &&
      (rec.refs[0] > 0 || rec.refs[1] > 0 || rec.refs[2] > 0 ||
       rec.admitted_prev)) {
    rec.in_live = true;
    state.live.push_back(it->second);
  }
}

void ProblemBuilder::RescoreBucket(RoleState& state, const Bucket& bucket,
                                   int which, int32_t sign) {
  std::vector<std::pair<uint32_t, uint32_t>> members(bucket.occ.begin(),
                                                     bucket.occ.end());
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      BumpRef(state, members[i].first, members[j].first, which,
              sign * static_cast<int32_t>(members[i].second *
                                          members[j].second));
    }
  }
}

void ProblemBuilder::AddToBucket(RoleState& state, Bucket& bucket,
                                 uint32_t sid, uint32_t k, int which) {
  const size_t cap = options_.max_block_size;
  const bool was_valid = bucket.size <= cap;
  const size_t new_size = bucket.size + k;
  const bool now_valid = new_size <= cap;
  if (was_valid && now_valid) {
    for (const auto& [other, occ] : bucket.occ) {
      BumpRef(state, sid, other, which,
              static_cast<int32_t>(k * occ));
    }
  } else if (was_valid && !now_valid) {
    // The bucket crosses the blocking cap: its whole pairwise
    // contribution disappears, not just the new member's.
    RescoreBucket(state, bucket, which, -1);
  }
  bucket.occ[sid] += k;
  bucket.size = new_size;
}

void ProblemBuilder::RemoveFromBucket(RoleState& state, Bucket& bucket,
                                      uint32_t sid, int which) {
  auto it = bucket.occ.find(sid);
  if (it == bucket.occ.end()) return;
  const size_t cap = options_.max_block_size;
  const uint32_t k = it->second;
  const bool was_valid = bucket.size <= cap;
  bucket.occ.erase(it);
  bucket.size -= k;
  const bool now_valid = bucket.size <= cap;
  if (was_valid) {
    for (const auto& [other, occ] : bucket.occ) {
      BumpRef(state, sid, other, which,
              -static_cast<int32_t>(k * occ));
    }
  } else if (now_valid) {
    // Crossed back under the cap: the remaining membership's pairwise
    // contribution comes (back) into force.
    RescoreBucket(state, bucket, which, +1);
  }
}

void ProblemBuilder::ActivateSurface(size_t role, uint32_t sid) {
  RoleState& state = roles_[role];
  if (IsNpRole(role)) {
    const NpMeta& meta = np_meta_[sid];
    for (const auto& [token, count] : meta.tokens) {
      AddToBucket(state, state.token_buckets[token], sid, count, kTokenRefs);
    }
    if (options_.side_info_blocking) {
      if (meta.ppdb_rep.has_value()) {
        AddToBucket(state, state.ppdb_buckets[*meta.ppdb_rep], sid, 1,
                    kPpdbRefs);
      }
      for (int64_t id : meta.blocking_ids) {
        AddToBucket(state, state.cand_buckets[id], sid, 1, kCandRefs);
      }
    }
  } else {
    const RpMeta& meta = rp_meta_[sid];
    for (const auto& [token, count] : meta.tokens) {
      AddToBucket(state, state.token_buckets[token], sid, count, kTokenRefs);
    }
    // No candidate-overlap blocking for predicates: with few CKB relations
    // the top candidates collide constantly, flooding the graph with
    // unrelated RP pairs whose own features then confirm the block
    // (selection bias). PPDB buckets cover the synonym-verb case.
    if (options_.side_info_blocking && meta.ppdb_rep.has_value()) {
      AddToBucket(state, state.ppdb_buckets[*meta.ppdb_rep], sid, 1,
                  kPpdbRefs);
    }
  }
}

void ProblemBuilder::DeactivateSurface(size_t role, uint32_t sid) {
  RoleState& state = roles_[role];
  auto drop = [&](auto& bucket_map, const auto& key, int which) {
    auto it = bucket_map.find(key);
    if (it == bucket_map.end()) return;
    RemoveFromBucket(state, it->second, sid, which);
    if (it->second.size == 0) bucket_map.erase(it);
  };
  if (IsNpRole(role)) {
    const NpMeta& meta = np_meta_[sid];
    for (const auto& [token, count] : meta.tokens) {
      (void)count;
      drop(state.token_buckets, token, kTokenRefs);
    }
    if (options_.side_info_blocking) {
      if (meta.ppdb_rep.has_value()) {
        drop(state.ppdb_buckets, *meta.ppdb_rep, kPpdbRefs);
      }
      for (int64_t id : meta.blocking_ids) {
        drop(state.cand_buckets, id, kCandRefs);
      }
    }
  } else {
    const RpMeta& meta = rp_meta_[sid];
    for (const auto& [token, count] : meta.tokens) {
      (void)count;
      drop(state.token_buckets, token, kTokenRefs);
    }
    if (options_.side_info_blocking && meta.ppdb_rep.has_value()) {
      drop(state.ppdb_buckets, *meta.ppdb_rep, kPpdbRefs);
    }
  }
}

void ProblemBuilder::EmitRole(size_t role, const std::vector<size_t>& active,
                              size_t threads,
                              std::vector<std::string>* surfaces,
                              std::vector<size_t>* of,
                              std::vector<size_t>* rep,
                              std::vector<SurfacePair>* pairs,
                              FrontEndDelta* delta,
                              std::vector<uint32_t>* by_rank) {
  RoleState& state = roles_[role];

  // ---- first-appearance ranks over the active set -----------------------
  ++state.epoch;
  by_rank->clear();
  of->clear();
  of->reserve(active.size());
  rep->clear();
  for (size_t t = 0; t < active.size(); ++t) {
    uint32_t sid = sid_of_triple_[active[t]][role];
    if (state.rank_epoch[sid] != state.epoch) {
      state.rank_epoch[sid] = state.epoch;
      state.rank_of[sid] = static_cast<uint32_t>(by_rank->size());
      by_rank->push_back(sid);
      rep->push_back(t);
    }
    of->push_back(state.rank_of[sid]);
  }
  // Element-wise assignment reuses the previous emission's strings.
  surfaces->resize(by_rank->size());
  for (size_t r = 0; r < by_rank->size(); ++r) {
    (*surfaces)[r] = SurfaceOf(role, (*by_rank)[r]);
  }

  // ---- compact dead pair recs, collect missing similarities --------------
  std::vector<size_t> need_sim;
  for (size_t i = 0; i < state.live.size();) {
    PairRec& rec = state.slab[state.live[i]];
    if (rec.refs[0] <= 0 && rec.refs[1] <= 0 && rec.refs[2] <= 0) {
      if (rec.admitted_prev) {
        delta->pair_events[role].removed.push_back(PackPair(rec.lo, rec.hi));
        rec.admitted_prev = false;
      }
      rec.in_live = false;
      state.live[i] = state.live.back();
      state.live.pop_back();
      continue;
    }
    const bool lo_first = state.rank_of[rec.lo] < state.rank_of[rec.hi];
    if (std::isnan(lo_first ? rec.sim_lo_first : rec.sim_hi_first)) {
      need_sim.push_back(state.live[i]);
    }
    ++i;
  }

  // ---- parallel similarity fill (disjoint slots, deterministic) ----------
  const IdfTable& idf =
      role == kPredicate ? signals_->rp_idf : signals_->np_idf;
  RunOnPool(
      need_sim.size(), threads, [](size_t) { return size_t{1}; },
      [&](size_t n) {
        PairRec& rec = state.slab[need_sim[n]];
        const bool lo_first = state.rank_of[rec.lo] < state.rank_of[rec.hi];
        const std::string& first = SurfaceOf(role, lo_first ? rec.lo : rec.hi);
        const std::string& second =
            SurfaceOf(role, lo_first ? rec.hi : rec.lo);
        (lo_first ? rec.sim_lo_first : rec.sim_hi_first) =
            idf.Similarity(first, second);
      });

  // ---- admission + emission ----------------------------------------------
  pairs->clear();
  for (size_t idx : state.live) {
    PairRec& rec = state.slab[idx];
    const uint32_t rank_lo = state.rank_of[rec.lo];
    const uint32_t rank_hi = state.rank_of[rec.hi];
    const bool lo_first = rank_lo < rank_hi;
    const double sim = lo_first ? rec.sim_lo_first : rec.sim_hi_first;
    const bool token_ok =
        rec.refs[kTokenRefs] > 0 && sim >= options_.pair_threshold;
    const bool admitted =
        token_ok || rec.refs[kPpdbRefs] > 0 || rec.refs[kCandRefs] > 0;
    const bool blocked = !token_ok && rec.refs[kPpdbRefs] <= 0 &&
                         rec.refs[kCandRefs] > 0;
    if (admitted != rec.admitted_prev) {
      auto& events = admitted ? delta->pair_events[role].added
                              : delta->pair_events[role].removed;
      events.push_back(PackPair(rec.lo, rec.hi));
      rec.admitted_prev = admitted;
    } else if (admitted && blocked != rec.blocked_prev) {
      // Still admitted but the candidate-blocked tag flipped (a shared
      // bucket crossed the size cap): the emitted SurfacePair changed, so
      // announce it, so the session's provably-clean shard skip sees the
      // affected component as touched.
      delta->pair_events[role].added.push_back(PackPair(rec.lo, rec.hi));
    }
    if (admitted) {
      rec.blocked_prev = blocked;
      SurfacePair pair;
      pair.a = lo_first ? rank_lo : rank_hi;
      pair.b = lo_first ? rank_hi : rank_lo;
      pair.idf = sim;
      pair.candidate_blocked = blocked;
      pairs->push_back(pair);
    }
  }

  // ---- deterministic order; cap by similarity when oversized -------------
  // The similarity-rank sort only matters for picking the cap survivors;
  // under the cap the final (a, b) re-sort is a total order over unique
  // keys, so skipping the first sort cannot change the emitted list.
  if (pairs->size() > options_.max_pairs_per_role) {
    std::sort(pairs->begin(), pairs->end(),
              [](const SurfacePair& x, const SurfacePair& y) {
                if (x.idf != y.idf) return x.idf > y.idf;
                if (x.a != y.a) return x.a < y.a;
                return x.b < y.b;
              });
    pairs->resize(options_.max_pairs_per_role);
    // Which pairs survive the cap depends on global similarity rank, so
    // the pair events above no longer describe the surviving set.
    delta->overflow = true;
  }
  std::sort(pairs->begin(), pairs->end(),
            [](const SurfacePair& x, const SurfacePair& y) {
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
}

void ProblemBuilder::Apply(const std::vector<size_t>& added,
                           const std::vector<size_t>& removed,
                           const std::vector<size_t>& active, size_t threads,
                           JoclProblem* problem, FrontEndDelta* delta) {
  *delta = FrontEndDelta();
  if (threads == 0) threads = 1;

  // Surface-event baseline: representative (min active mention) of every
  // surface touched this batch, snapshotted at first touch.
  std::unordered_map<uint32_t, size_t> old_rep[3];
  auto touch = [&](size_t role, uint32_t sid) {
    const auto& mentions = roles_[role].mentions[sid];
    old_rep[role].emplace(sid, mentions.empty() ? kNoRep : mentions.front());
  };

  // ---- removals -----------------------------------------------------------
  for (size_t t : removed) {
    const auto& sids = sid_of_triple_[t];
    for (size_t role = 0; role < 3; ++role) {
      uint32_t sid = sids[role];
      touch(role, sid);
      auto& mentions = roles_[role].mentions[sid];
      auto it = std::lower_bound(mentions.begin(), mentions.end(), t);
      if (it != mentions.end() && *it == t) mentions.erase(it);
      if (mentions.empty()) DeactivateSurface(role, sid);
    }
  }

  // ---- additions (bucket insertion deferred until metadata is ready) -----
  new_np_sids_.clear();
  new_rp_sids_.clear();
  std::vector<std::pair<size_t, uint32_t>> activations;
  for (size_t t : added) {
    EnsureTripleInterned(t);
    const auto& sids = sid_of_triple_[t];
    for (size_t role = 0; role < 3; ++role) {
      uint32_t sid = sids[role];
      touch(role, sid);
      auto& mentions = roles_[role].mentions[sid];
      if (mentions.empty()) activations.emplace_back(role, sid);
      if (mentions.empty() || mentions.back() < t) {
        mentions.push_back(t);  // batches arrive ascending: O(1) common case
      } else {
        mentions.insert(std::upper_bound(mentions.begin(), mentions.end(), t),
                        t);
      }
    }
  }

  PrepareNewSurfaces(threads);
  for (const auto& [role, sid] : activations) ActivateSurface(role, sid);

  // ---- surface events (sorted for deterministic delta bytes) -------------
  for (size_t role = 0; role < 3; ++role) {
    std::vector<uint32_t> touched;
    touched.reserve(old_rep[role].size());
    for (const auto& [sid, rep] : old_rep[role]) touched.push_back(sid);
    std::sort(touched.begin(), touched.end());
    for (uint32_t sid : touched) {
      const auto& mentions = roles_[role].mentions[sid];
      size_t now = mentions.empty() ? kNoRep : mentions.front();
      if (now != old_rep[role][sid]) {
        delta->surface_events[role].push_back(sid);
      }
    }
  }

  // ---- emission -----------------------------------------------------------
  problem->triples = active;
  std::vector<uint32_t> subject_rank, object_rank, predicate_rank;
  EmitRole(kSubject, active, threads, &problem->subject_surfaces,
           &problem->subject_of, &problem->subject_rep,
           &problem->subject_pairs, delta, &subject_rank);
  EmitRole(kObject, active, threads, &problem->object_surfaces,
           &problem->object_of, &problem->object_rep, &problem->object_pairs,
           delta, &object_rank);
  EmitRole(kPredicate, active, threads, &problem->predicate_surfaces,
           &problem->predicate_of, &problem->predicate_rep,
           &problem->predicate_pairs, delta, &predicate_rank);

  // ---- candidates + lookup counters ---------------------------------------
  // Consult order is subject surfaces, then object, then predicate; an NP
  // surface consulted in both roles misses at most once.
  candidate_hits_ = 0;
  candidate_misses_ = 0;
  auto count = [&](bool* consulted) {
    if (*consulted) {
      ++candidate_hits_;
    } else {
      ++candidate_misses_;
      *consulted = true;
    }
  };
  auto emit_candidates = [&](const std::vector<uint32_t>& by_rank,
                             auto& meta, auto* candidates) {
    candidates->resize(by_rank.size());
    for (size_t r = 0; r < by_rank.size(); ++r) {
      count(&meta[by_rank[r]].consulted);
      (*candidates)[r] = meta[by_rank[r]].candidates;
    }
  };
  emit_candidates(subject_rank, np_meta_, &problem->subject_candidates);
  emit_candidates(object_rank, np_meta_, &problem->object_candidates);
  emit_candidates(predicate_rank, rp_meta_, &problem->predicate_candidates);
}

JoclProblem BuildProblem(const Dataset& dataset, const SignalBundle& signals,
                         const std::vector<size_t>& triple_subset,
                         const ProblemOptions& options) {
  std::vector<size_t> subset = triple_subset;
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
  JoclProblem problem;
  FrontEndDelta delta;
  ProblemBuilder(&dataset, &signals, options)
      .Apply(subset, {}, subset, /*threads=*/1, &problem, &delta);
  return problem;
}

}  // namespace jocl

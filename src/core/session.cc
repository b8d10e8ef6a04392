#include "core/session.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/worker_pool.h"

namespace jocl {
namespace {

/// A cached component unused for more than this many consecutive batches
/// is evicted. Retention matters: a removal that splits a shard often
/// restores components solved *before* the merge, and retaining them
/// makes the split free.
constexpr size_t kStaleRetention = 8;

/// Mirrors a finished batch's session-only families onto the
/// process-wide registry; the LBP families it shares with the runtime go
/// through MirrorLbpStats.
void MirrorSessionStats(const SessionStats& stats, uint64_t generation) {
  MetricsRegistry& global = MetricsRegistry::Global();
  static Counter* batches = global.AddCounter(
      "jocl_session_batches_total", "", "Session refreshes (ingest batches)");
  static Counter* dirty = global.AddCounter(
      "jocl_session_dirty_shards_total", "", "Shards re-inferred per batch");
  static Counter* clean =
      global.AddCounter("jocl_session_clean_shards_total", "",
                        "Shards reused from the belief store");
  static Counter* cache_hits = global.AddCounter(
      "jocl_problem_cache_hits_total", "", "Problem-cache candidate hits");
  static Counter* cache_misses = global.AddCounter(
      "jocl_problem_cache_misses_total", "", "Problem-cache candidate misses");
  static Counter* new_phrases =
      global.AddCounter("jocl_signal_cache_new_phrases_total", "",
                        "Phrases first seen by the signal cache");
  static Gauge* gen = global.AddGauge("jocl_session_generation", "",
                                      "Generation of the latest batch");
  static Histogram* stage_problem = global.AddHistogram(
      "jocl_session_frontend_seconds", "stage=\"problem\"",
      "Per-batch front-end stage wall time");
  static Histogram* stage_cache = global.AddHistogram(
      "jocl_session_frontend_seconds", "stage=\"signal_cache\"",
      "Per-batch front-end stage wall time");
  static Histogram* stage_partition = global.AddHistogram(
      "jocl_session_frontend_seconds", "stage=\"partition\"",
      "Per-batch front-end stage wall time");
  static Histogram* stage_decode = global.AddHistogram(
      "jocl_session_frontend_seconds", "stage=\"decode\"",
      "Per-batch front-end stage wall time");
  batches->Add();
  dirty->Add(stats.dirty_shards);
  clean->Add(stats.clean_shards);
  cache_hits->Add(stats.problem_cache_hits);
  cache_misses->Add(stats.problem_cache_misses);
  new_phrases->Add(stats.cache_new_phrases);
  auto record_seconds = [](Histogram* histogram, double seconds) {
    histogram->Record(static_cast<uint64_t>(seconds * 1e9));
  };
  record_seconds(stage_problem, stats.problem_seconds);
  record_seconds(stage_cache, stats.cache_seconds);
  record_seconds(stage_partition, stats.partition_seconds);
  record_seconds(stage_decode, stats.decode_seconds);
  gen->Set(static_cast<int64_t>(generation));
}

}  // namespace

JoclSession::JoclSession(const Dataset* dataset, const SignalBundle* signals,
                         JoclOptions options, SessionOptions session,
                         std::vector<double> weights)
    : dataset_(dataset),
      signals_(signals),
      options_(std::move(options)),
      session_(session),
      weights_(std::move(weights)),
      builder_(dataset, signals, options_.problem) {
  if (weights_.empty()) weights_ = Jocl::DefaultWeights();
}

Status JoclSession::AddTriples(const std::vector<size_t>& batch,
                               SessionStats* stats) {
  if (stats != nullptr) *stats = SessionStats();
  if (weights_.size() != WeightLayout::kCount) {
    return Status::InvalidArgument(
        "session weights must have WeightLayout::kCount entries");
  }
  for (size_t t : batch) {
    if (t >= dataset_->okb.size()) {
      return Status::InvalidArgument("AddTriples: triple index " +
                                     std::to_string(t) +
                                     " out of range for the dataset");
    }
  }
  // Sorted batch minus the already-active ids.
  std::vector<size_t> fresh = batch;
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  std::vector<size_t> added;
  added.reserve(fresh.size());
  std::set_difference(fresh.begin(), fresh.end(), active_.begin(),
                      active_.end(), std::back_inserter(added));
  if (added.empty()) return Status::OK();  // no-op, result unchanged

  std::vector<size_t> merged;
  merged.reserve(active_.size() + added.size());
  std::merge(active_.begin(), active_.end(), added.begin(), added.end(),
             std::back_inserter(merged));
  active_ = std::move(merged);
  if (stats != nullptr) stats->added = added.size();
  return Refresh(added, {}, stats);
}

Status JoclSession::RemoveTriples(const std::vector<size_t>& batch,
                                  SessionStats* stats) {
  if (stats != nullptr) *stats = SessionStats();
  if (weights_.size() != WeightLayout::kCount) {
    return Status::InvalidArgument(
        "session weights must have WeightLayout::kCount entries");
  }
  std::vector<size_t> fresh = batch;
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  std::vector<size_t> removed;
  removed.reserve(fresh.size());
  std::set_intersection(fresh.begin(), fresh.end(), active_.begin(),
                        active_.end(), std::back_inserter(removed));
  if (removed.empty()) return Status::OK();  // no-op, result unchanged

  std::vector<size_t> remaining;
  remaining.reserve(active_.size() - removed.size());
  std::set_difference(active_.begin(), active_.end(), removed.begin(),
                      removed.end(), std::back_inserter(remaining));
  active_ = std::move(remaining);
  if (stats != nullptr) stats->removed = removed.size();
  return Refresh({}, removed, stats);
}

Status JoclSession::UpdateWeights(std::vector<double> weights,
                                  SessionStats* stats) {
  if (stats != nullptr) *stats = SessionStats();
  if (weights.empty()) weights = Jocl::DefaultWeights();
  if (weights.size() != WeightLayout::kCount) {
    return Status::InvalidArgument(
        "session weights must have WeightLayout::kCount entries");
  }
  if (weights == weights_) return Status::OK();  // no-op, result unchanged
  weights_ = std::move(weights);
  // Every cached belief was computed under the old weights; the store is
  // the reuse guard, so clearing it marks every component dirty.
  store_.clear();
  if (active_.empty()) return Status::OK();  // nothing to re-infer yet
  return Refresh({}, {}, stats);
}

Status JoclSession::Refresh(const std::vector<size_t>& added,
                            const std::vector<size_t>& removed,
                            SessionStats* stats) {
  SessionStats local_stats;
  local_stats.added = stats != nullptr ? stats->added : 0;
  local_stats.removed = stats != nullptr ? stats->removed : 0;
  ScopedSpan batch_span("ingest_batch");
  std::optional<ScopedSpan> span;

  const size_t frontend_threads = ResolveThreadCount(session_.frontend_threads);
  // Weights-only refresh over an unchanged active set (UpdateWeights):
  // the persisted problem and its partition are still exact — skip the
  // whole front-end and go straight to (all-dirty) inference.
  const bool reuse_frontend = added.empty() && removed.empty() &&
                              generation_ > 0 && problem_.triples == active_;

  // ---- global problem build (O(Δ) incremental, or reused verbatim) -------
  // The builder overwrites the previous problem in place, so its strings
  // and candidate lists keep their storage.
  span.emplace("build_problem", &local_stats.problem_seconds);
  JoclProblem problem = std::move(problem_);
  FrontEndDelta fdelta;
  if (reuse_frontend) {
    local_stats.frontend_reused = true;
  } else {
    builder_.Apply(added, removed, active_, frontend_threads, &problem,
                   &fdelta);
    local_stats.problem_cache_hits = builder_.candidate_hits();
    local_stats.problem_cache_misses = builder_.candidate_misses();
  }

  // ---- append-only signal-cache ingestion ---------------------------------
  // Delta registration: only surfaces first interned this batch (and their
  // candidates' CKB names and F5 relation rows) can introduce new memo
  // entries — previously seen surfaces already registered theirs (Add is
  // idempotent and the cache never evicts). Intern order differs from a
  // RegisterProblem walk, but phrase ids are only ever compared for
  // equality, so query answers are identical. A reused problem interns
  // nothing.
  span.emplace("signal_cache", &local_stats.cache_seconds);
  const size_t phrases_before = cache_.size();
  if (!reuse_frontend) {
    for (uint32_t sid : builder_.new_np_sids()) {
      cache_.Add(builder_.np_surface(sid));
      for (const EntityCandidate& candidate : builder_.np_candidates(sid)) {
        cache_.Add(dataset_->ckb.entity(candidate.id).name);
      }
    }
    for (uint32_t sid : builder_.new_rp_sids()) {
      cache_.Add(builder_.rp_surface(sid));
      for (const RelationCandidate& candidate : builder_.rp_candidates(sid)) {
        cache_.AddRelationCandidate(builder_.rp_surface(sid), candidate.id,
                                    dataset_->ckb);
      }
    }
    cache_.Finalize(*signals_);
  }
  local_stats.cache_new_phrases = cache_.size() - phrases_before;

  // ---- partition ------------------------------------------------------------
  // One shard per connected component: dirtiness is per-component, and
  // packing would only coarsen reuse. The labels come from the problem's
  // own pairs, exactly as in the runtime and the learner. The plan holds
  // index maps only: dirty shards materialize their local problem bodies
  // below, clean shards never do. The plan is refilled in place, so its
  // index maps keep their storage across batches. The reuse guard and
  // that materialization are front-end work too: the span covers them.
  span.emplace("partition", &local_stats.partition_seconds);
  std::vector<size_t> comp_of_triple;
  std::vector<size_t> comp_weight;
  ComputeProblemComponents(problem, &comp_of_triple, &comp_weight);
  ShardPlan& plan = plan_;
  MaterializeShardPlan(problem, comp_of_triple, comp_weight,
                       /*max_shards=*/0, &plan);
  local_stats.shards = plan.shards.size();

  ++generation_;

  // ---- reuse resolution ----------------------------------------------------
  // The store decides: a shard whose triple set matches *any* cached
  // component (e.g. one restored by a removal that undid an earlier merge)
  // is reusable, provided its local problem is structurally identical —
  // the byte-exactness guard.

  // Provably-clean skip: on a non-truncating batch the front-end delta
  // announces every emission change (surface rep moves and revivals, pair
  // admissions/removals, candidate-blocked flips), and relative surface
  // ranks only move when a rep does. A shard that hits a store entry and
  // whose triples host no mention of any event surface is byte-identical
  // to the entry's body, however old the entry is:
  //  * a one-triple shard has no pairs, and its surfaces and candidates
  //    are functions of the triple alone;
  //  * a larger shard is held together by pairs between representative
  //    mentions. Had its triple set not been a component of the previous
  //    partition, this batch would have added, removed or re-anchored a
  //    pair that joins or bounds it — an event naming a surface with a
  //    mention inside the shard. So it was one, and the previous batch
  //    reused or stored its entry (verified by the guard, or by this
  //    argument, since the last truncating batch).
  // The structural compare would walk its strings for nothing.
  // Everything else still pays the full guard.
  std::vector<uint8_t> event_touched;
  const bool can_skip_clean =
      !reuse_frontend && !fdelta.overflow && !prev_overflow_;
  if (can_skip_clean) {
    event_touched.assign(plan.shards.size(), 0);
    auto touch_sid = [&](size_t role, uint32_t sid) {
      for (size_t t : builder_.mentions(role, sid)) {
        auto it = std::lower_bound(problem.triples.begin(),
                                   problem.triples.end(), t);
        if (it != problem.triples.end() && *it == t) {
          event_touched[comp_of_triple[it - problem.triples.begin()]] = 1;
        }
      }
    };
    for (size_t role = 0; role < 3; ++role) {
      for (uint32_t sid : fdelta.surface_events[role]) touch_sid(role, sid);
      for (uint64_t packed : fdelta.pair_events[role].added) {
        touch_sid(role, static_cast<uint32_t>(packed >> 32));
        touch_sid(role, static_cast<uint32_t>(packed));
      }
      for (uint64_t packed : fdelta.pair_events[role].removed) {
        touch_sid(role, static_cast<uint32_t>(packed >> 32));
        touch_sid(role, static_cast<uint32_t>(packed));
      }
    }
  }
  if (!reuse_frontend) prev_overflow_ = fdelta.overflow;

  // Recycle the previous batch's arrays: SizeJoclBeliefs resizes in
  // place, so the scatters below assign into existing inner-vector
  // capacity instead of reallocating every marginal.
  JoclBeliefs beliefs = std::move(beliefs_);
  SizeJoclBeliefs(problem, options_.builder, &beliefs);
  std::vector<SolvedComponent*> reused(plan.shards.size(), nullptr);
  std::vector<size_t> dirty;
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    auto it = store_.find(plan.shards[s].problem.triples);
    // Plan shards have no local problem body yet: compare the cached body
    // against the projection the shard *would* materialize instead.
    const bool skip =
        it != store_.end() && can_skip_clean && !event_touched[s];
    bool match = skip || (it != store_.end() &&
                          ShardMatchesCached(problem, plan.shards[s],
                                             it->second.problem));
    local_stats.skipped_guards += skip ? 1 : 0;
    if (match) {
      reused[s] = &it->second;
      it->second.last_used = generation_;
    } else {
      dirty.push_back(s);
    }
  }
  local_stats.dirty_shards = dirty.size();
  local_stats.clean_shards = plan.shards.size() - dirty.size();

  // Materialize only the dirty shards' local problems (the per-component
  // assembly fan-out); clean shards are scattered through their index
  // maps alone.
  if (!dirty.empty()) {
    RunOnPool(
        dirty.size(), frontend_threads,
        [&](size_t d) { return plan.shards[dirty[d]].triple_map.size(); },
        [&](size_t d) {
          MaterializeShardProblem(problem, &plan.shards[dirty[d]]);
        });
  }

  // ---- dirty shards on a worker pool, heaviest first ----------------------
  span.emplace("run_shards", &local_stats.shard_seconds);
  std::vector<ShardBeliefs> outcomes(dirty.size());
  const size_t threads = ResolveThreadCount(session_.num_threads);
  const size_t engine_threads = EngineThreadsPerShard(threads, dirty.size());
  auto run_dirty = [&](size_t d) {
    // Track by the *plan* shard index: a deterministic key across thread
    // counts and batch replays (the pool's worker id is neither).
    TraceTrackScope track("shard/", dirty[d]);
    ScopedSpan span("shard_run");
    const ProblemShard& shard = plan.shards[dirty[d]];
    outcomes[d] =
        RunShardInference(shard.problem, cache_, dataset_->ckb, options_,
                          weights_, engine_threads);
    ScatterShardBeliefs(shard, outcomes[d], options_.builder, &beliefs);
  };
  RunOnPool(
      dirty.size(), threads,
      [&](size_t d) { return plan.shards[dirty[d]].triple_map.size(); },
      run_dirty);
  // Clean shards: scatter the cached beliefs.
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    if (reused[s] != nullptr) {
      ScatterShardBeliefs(plan.shards[s], reused[s]->beliefs,
                          options_.builder, &beliefs);
    }
  }

  // ---- merge + global decode ----------------------------------------------
  span.emplace("decode", &local_stats.decode_seconds);
  LbpResult diagnostics;
  diagnostics.converged = true;
  {
    size_t d = 0;
    for (size_t s = 0; s < plan.shards.size(); ++s) {
      if (reused[s] != nullptr) {
        MergeShardDiagnostics(reused[s]->beliefs.diagnostics, &diagnostics);
      } else {
        FoldShardRun(outcomes[d++], &diagnostics, &local_stats);
      }
    }
  }
  // Donate the previous result's marginal storage so the canonical list
  // rebuild assigns in place (see AssembleJoclResult).
  diagnostics.marginals = std::move(result_.diagnostics.marginals);
  result_ = AssembleJoclResult(problem, beliefs, options_, weights_,
                               std::move(diagnostics));
  span.reset();

  // ---- persist state + store upkeep ---------------------------------------
  // The dirty shards' bodies move into the store.
  for (size_t d = 0; d < dirty.size(); ++d) {
    ProblemShard& shard = plan.shards[dirty[d]];
    std::vector<size_t> key = shard.problem.triples;
    SolvedComponent& entry = store_[std::move(key)];
    entry.problem = std::move(shard.problem);
    entry.beliefs = std::move(outcomes[d]);
    entry.last_used = generation_;
  }
  for (auto it = store_.begin(); it != store_.end();) {
    if (generation_ - it->second.last_used > kStaleRetention) {
      it = store_.erase(it);
    } else {
      ++it;
    }
  }
  problem_ = std::move(problem);
  beliefs_ = std::move(beliefs);

  JOCL_LOG(kDebug) << "session: generation " << generation_ << ", "
                   << local_stats.dirty_shards << "/" << local_stats.shards
                   << " dirty shards, " << local_stats.cache_new_phrases
                   << " new phrases";
  MirrorSessionStats(local_stats, generation_);
  MirrorLbpStats(local_stats, result_.diagnostics.final_residual);
  MirrorDecodeStats(result_);
  if (stats != nullptr) *stats = local_stats;
  if (publish_callback_) {
    ScopedSpan publish_span("publish");
    publish_callback_(*this);
  }
  return Status::OK();
}

}  // namespace jocl

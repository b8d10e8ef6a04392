#ifndef JOCL_OBS_TRACE_H_
#define JOCL_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jocl {

/// \brief Recorder of nested pipeline spans, dumpable as Chrome
/// `chrome://tracing` JSON (`--trace-out` on the tools).
///
/// Spans land on logical *tracks*, not physical threads: "main" for the
/// orchestration thread, "shard/<plan index>" for per-shard work,
/// "learner/<component>" for learner passes. A track's unit of work is
/// executed sequentially by exactly one thread at a time, and span
/// sequence numbers are assigned under the recorder lock in completion
/// order per track — so the dumped JSON is byte-identical across runs
/// and thread counts modulo the `ts`/`dur` fields. Physical thread ids
/// are never emitted.
///
/// Recording is only active through an installed global recorder
/// (`ScopedTraceSession`); when none is installed every span/track
/// helper is a single relaxed atomic load — cheap enough to leave in
/// bench and serve hot paths.
class TraceRecorder {
 public:
  struct Span {
    std::string name;
    std::string track;
    uint64_t start_ns = 0;   ///< monotonic clock
    uint64_t dur_ns = 0;
    uint64_t seq = 0;        ///< per-track completion order
    int64_t parent_seq = -1; ///< enclosing span's seq on the same track
    std::string args;        ///< pre-rendered JSON object body ("" = none)
  };

  /// Reserves the next sequence number on \p track. Called at span
  /// *start* so children (which complete before their parent) can still
  /// name the parent's seq.
  uint64_t ReserveSeq(std::string_view track);

  /// Completes the span that reserved \p seq on \p track. \p parent_seq
  /// is the seq of the enclosing span on the same track (-1 for a root).
  void AddSpan(std::string_view name, std::string_view track,
               uint64_t start_ns, uint64_t dur_ns, uint64_t seq,
               int64_t parent_seq, std::string_view args);

  /// Snapshot of all completed spans, sorted by (track, seq) — the same
  /// deterministic order the JSON dump uses (test hook).
  std::vector<Span> Spans() const;

  /// Chrome trace-event JSON: one "M" thread_name metadata event per
  /// track plus one "X" complete event per span. Tracks are numbered by
  /// (name length, lexicographic) so "main" < "shard/0" < ... is stable;
  /// events within a track follow seq order. Byte-identical across runs
  /// modulo `ts`/`dur`.
  std::string ToChromeJson() const;

  /// Writes `ToChromeJson()` to \p path. Returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

  /// The installed recorder, or nullptr when tracing is off.
  static TraceRecorder* Global() {
    return global_.load(std::memory_order_acquire);
  }
  static void SetGlobal(TraceRecorder* recorder) {
    global_.store(recorder, std::memory_order_release);
  }

 private:
  static std::atomic<TraceRecorder*> global_;

  struct TrackState {
    std::string name;
    uint64_t next_seq = 0;
  };
  uint64_t NextSeqLocked(std::string_view track);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<TrackState> tracks_;
};

namespace obs_internal {
/// The calling thread's current logical track ("main" by default).
const std::string& CurrentTrack();
void SetCurrentTrack(std::string track);
/// Seq of the innermost open span on this thread (-1 at top level).
int64_t CurrentParentSeq();
void SetCurrentParentSeq(int64_t seq);
}  // namespace obs_internal

/// \brief Reassigns the calling thread to a logical track for the
/// scope's duration (restores the previous track on exit). Pool workers
/// executing shard s wrap the work in `TraceTrackScope("shard/", s)`.
/// When no recorder is installed the constructor is one atomic load —
/// no string is built.
class TraceTrackScope {
 public:
  explicit TraceTrackScope(std::string_view track);
  TraceTrackScope(std::string_view prefix, size_t index);
  ~TraceTrackScope();

  TraceTrackScope(const TraceTrackScope&) = delete;
  TraceTrackScope& operator=(const TraceTrackScope&) = delete;

 private:
  bool active_ = false;
  std::string saved_;
  int64_t saved_parent_ = -1;
};

/// \brief RAII span: records [construction, destruction) on the
/// thread's current track, nested under the innermost open ScopedSpan.
/// One atomic load when tracing is off (plus two clock reads for a span
/// with a seconds sink).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  /// \p args_json is the body of the span's "args" object, e.g.
  /// `"shard":3,"variables":120` (no outer braces).
  ScopedSpan(std::string_view name, std::string args_json);
  /// Stage-clock form: on close, adds the span's duration — the same
  /// `dur_ns` an installed recorder stores — to `*seconds`. This is the
  /// only clock behind the pipeline's `*_seconds` stats. With no recorder
  /// installed it reads the monotonic clock twice and records nothing.
  ScopedSpan(std::string_view name, double* seconds);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_ = nullptr;
  double* seconds_ = nullptr;
  std::string name_;
  std::string args_;
  uint64_t start_ns_ = 0;
  uint64_t seq_ = 0;
  int64_t parent_seq_ = -1;
};

/// \brief Installs \p recorder as the global recorder for the scope's
/// lifetime (tools wrap their pipeline in one of these when
/// `--trace-out` is set).
class ScopedTraceSession {
 public:
  explicit ScopedTraceSession(TraceRecorder* recorder) {
    TraceRecorder::SetGlobal(recorder);
  }
  ~ScopedTraceSession() { TraceRecorder::SetGlobal(nullptr); }

  ScopedTraceSession(const ScopedTraceSession&) = delete;
  ScopedTraceSession& operator=(const ScopedTraceSession&) = delete;
};

}  // namespace jocl

#endif  // JOCL_OBS_TRACE_H_

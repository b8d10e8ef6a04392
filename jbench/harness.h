// jbench harness: the benchmark's own building blocks, kept apart from
// main.cc so tests can pin them down — quantile rules, seeded pool and
// op-sequence selection, op-class checks, the result schema, the span
// recorder behind the traced run, and a strict JSON validator used to
// check every served response.
#ifndef JBENCH_HARNESS_H_
#define JBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jbench {

// ---- quantiles --------------------------------------------------------

/// Minimum number of samples that must lie beyond a reported quantile.
constexpr size_t kSamplesBeyondQuantile = 10;

/// 1-based nearest rank of quantile \p q over \p n samples: ceil(q * n),
/// at least 1.
size_t NearestRank(size_t n, double q);

/// True when quantile \p q of \p n samples has at least
/// kSamplesBeyondQuantile samples beyond it (p50 needs 20, p90 100).
bool QuantileReportable(size_t n, double q);

/// Nearest-rank quantile of \p samples (copied and sorted); requires a
/// non-empty input.
double Quantile(std::vector<double> samples, double q);

// ---- result schema ----------------------------------------------------

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`: the metric-name charset.
bool ValidMetricName(std::string_view name);

/// `[A-Za-z0-9_/%.-]{1,16}`: the unit charset.
bool ValidUnit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Renders the benchmark's last output line:
/// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`
/// with every value printed to full double precision.
std::string RenderResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics);

// ---- strict JSON ------------------------------------------------------

/// True when \p text is exactly one RFC 8259 JSON value (surrounding
/// whitespace allowed).
bool IsValidJson(std::string_view text);

// ---- seeded inputs ----------------------------------------------------

/// The two held-out pools of the ingest and serve workloads, as dataset
/// triple ids.
struct Pools {
  std::vector<size_t> tail;  ///< from components other than the largest
  std::vector<size_t> head;  ///< from the largest component
};

/// Draws the pools from the component labels of the full test split.
/// \p triples and \p component_of are aligned; \p largest is the label of
/// the largest component. Tail triples come only from \p tail_eligible
/// triples (aligned too) of components of at most \p max_tail_component
/// triples, at most one per component, so a held-out tail triple never
/// takes a large share of its component. Deterministic in \p seed; both
/// pools are returned ascending.
Pools ChoosePools(const std::vector<size_t>& triples,
                  const std::vector<size_t>& component_of, size_t largest,
                  const std::vector<bool>& tail_eligible, size_t tail_count, size_t head_count,
                  size_t max_tail_component, uint64_t seed);

enum class OpKind { kTailAdd = 0, kTailRetract, kHeadAdd, kHeadRetract };
constexpr size_t kOpKinds = 4;
const char* OpKindName(OpKind kind);
inline bool IsHead(OpKind kind) {
  return kind == OpKind::kHeadAdd || kind == OpKind::kHeadRetract;
}

struct Op {
  OpKind kind = OpKind::kTailAdd;
  size_t batch = 0;  ///< index into the tail or head batch list
};

/// Longest delay, in ops, from an add to its scheduled retract. Retracts
/// due at the same op slip behind each other, so the longest delay seen is
/// somewhat larger; tests pin it below the session's stale retention (8),
/// which keeps the component an add replaced restorable by its retract.
constexpr size_t kMaxRetractDelay = 3;

/// The ingest writer's op sequence: \p rounds rounds, each adding
/// \p tail_per_round distinct tail batches and one head batch in seeded
/// order and retracting each of them 1 to kMaxRetractDelay ops later. The
/// active set is the prefill again after every round. Batches are used in a seeded cyclic order, so a batch
/// returns only after all others were used: with enough batches, an add
/// never recreates a component the session still holds solved from an
/// earlier round.
std::vector<Op> BuildOpSequence(size_t tail_batches, size_t head_batches,
                                size_t rounds, size_t tail_per_round,
                                uint64_t seed);

/// Splits \p pool into consecutive batches of \p batch_size (the last
/// may be shorter).
std::vector<std::vector<size_t>> SplitBatches(const std::vector<size_t>& pool,
                                              size_t batch_size);

/// The op-class guard. An op re-inferred the largest component iff its
/// dirty-graph variable count reaches half of that component's variable
/// count; tail ops must not, head ops must.
bool OpClassHolds(OpKind kind, size_t dirty_variables, size_t head_variables);

// ---- tracing ----------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Seconds since a fixed process-wide origin (wall clock).
double NowSeconds();

/// CPU seconds the calling thread has run. Benchmark timings use thread
/// CPU clocks: on a virtual machine whose host is overcommitted, wall time
/// also counts the time a vCPU was descheduled (steal), which drifts with
/// other tenants' load; under paravirtual steal accounting a thread's CPU
/// clock does not.
double ThreadCpuSeconds();

/// CPU seconds another thread of this process (Linux thread id \p tid)
/// has run; negative when the thread is gone.
double ThreadCpuSeconds(int tid);

/// One closed span: name, start, end (seconds on NowSeconds' clock), the
/// recording thread's CPU seconds in between, and the index of the span
/// that caused it (-1 at the root).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  double cpu = 0.0;
  int parent = -1;
};

/// The traced run's span store: spans recorded around calls into each
/// layer, held in memory and written out once at exit. Thread-safe.
class SpanRecorder {
 public:
  int Begin(std::string name, int parent);
  void End(int id, double cpu_seconds);
  std::vector<Span> Spans() const;
  /// CPU durations of every closed span named \p name, in record order.
  std::vector<double> CpuDurations(std::string_view name) const;
  /// Writes the spans as one JSON array; false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int parent = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_ = -1;
  double cpu_start_ = 0.0;
};

/// Share of [start, end] covered by the union of \p intervals.
double UnionCoverage(std::vector<std::pair<double, double>> intervals,
                     double start, double end);

}  // namespace jbench

#endif  // JBENCH_HARNESS_H_

#ifndef JOCL_OBS_METRICS_H_
#define JOCL_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jocl {

/// How many sharded cells back each hot-path metric. Every recording
/// thread hashes to one cell (round-robin slot assignment on first use),
/// so concurrent recorders contend at worst kMetricCells-ways on relaxed
/// atomics and the common case — one event thread per cell — is a private
/// cache line. Cells are merged on scrape, never on record.
inline constexpr size_t kMetricCells = 16;

/// The calling thread's cell index. Stable for the thread's lifetime;
/// assignment is one relaxed fetch_add on first use (no allocation, so
/// first-touch on the serve hot path stays inside the zero-alloc budget).
size_t MetricCellSlot();

/// Nanoseconds on the monotonic clock (steady_clock), the time base of
/// every latency histogram and trace span.
uint64_t MonotonicNanos();

/// \brief Monotonic counter: per-thread sharded cells, lock-free
/// relaxed-add recording, merge on read. Register through
/// `MetricsRegistry`; handles stay valid for the registry's lifetime.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    cells_[MetricCellSlot()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kMetricCells];
};

/// \brief Last-write-wins gauge (single atomic: gauges are set by one
/// writer — a publisher or the router's forward path — not accumulated).
class Gauge {
 public:
  void Set(int64_t value) { SetDouble(static_cast<double>(value)); }
  /// Fractional readings (an LBP convergence certificate); integral values
  /// render as integers either way.
  void SetDouble(double value) {
    value_.store(value, std::memory_order_relaxed);
  }
  int64_t Value() const { return static_cast<int64_t>(DoubleValue()); }
  double DoubleValue() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket log-scale latency histogram over nanoseconds.
///
/// Bucket upper bounds are powers of two: bucket i holds samples with
/// ns <= 1024 << i (1.024us, 2.048us, ... ~8.6s), plus a +Inf bucket.
/// Recording is one bucket-index scan plus three relaxed adds into the
/// caller's cell — lock-free and allocation-free, safe on the serve hot
/// path under the operator-new probe. Cells merge on scrape
/// (`Read`/Prometheus render), so a scrape racing a recorder may see a
/// sample in `count` before `sum` or vice versa — monotonic counters
/// only, never torn values.
class Histogram {
 public:
  static constexpr size_t kBuckets = 24;          ///< finite buckets
  static constexpr uint64_t kFirstBoundNanos = 1024;

  /// Upper bound of finite bucket \p i in nanoseconds.
  static uint64_t BucketBoundNanos(size_t i) { return kFirstBoundNanos << i; }

  /// Index of the bucket counting \p ns (kBuckets = the +Inf bucket).
  static size_t BucketOf(uint64_t ns) {
    size_t i = 0;
    uint64_t bound = kFirstBoundNanos;
    while (i < kBuckets && ns > bound) {
      ++i;
      bound <<= 1;
    }
    return i;
  }

  void Record(uint64_t ns) {
    Cell& cell = cells_[MetricCellSlot()];
    cell.bucket[BucketOf(ns)].fetch_add(1, std::memory_order_relaxed);
    cell.sum_ns.fetch_add(ns, std::memory_order_relaxed);
    cell.count.fetch_add(1, std::memory_order_relaxed);
  }

  /// Merged snapshot across all cells (non-cumulative bucket counts).
  struct Snapshot {
    uint64_t bucket[kBuckets + 1] = {0};
    uint64_t count = 0;
    uint64_t sum_ns = 0;
  };
  Snapshot Read() const;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> bucket[kBuckets + 1] = {};
    std::atomic<uint64_t> sum_ns{0};
    std::atomic<uint64_t> count{0};
  };
  Cell cells_[kMetricCells];
};

/// \brief Registry of named metrics rendered as Prometheus text
/// exposition (`text/plain; version=0.0.4`).
///
/// Registration (Add*) allocates and takes a mutex — it happens at
/// construction/setup time and returns stable handles; recording through
/// the handles is lock-free. Re-registering the same (name, labels) pair
/// returns the existing handle, so call-site `static` handles in library
/// code and repeated setup paths compose. Each `EventHttpServer` owns an
/// instance for server-scoped metrics; the pipeline layers (runtime,
/// session, learner, kernel counters) record into `Global()`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// \p name is the metric family (e.g. "jocl_requests_total"); \p labels
  /// is the rendered label list without braces (e.g. `endpoint="/lookup"`,
  /// empty for none); \p help is the one-line HELP text (first
  /// registration of a family wins).
  Counter* AddCounter(std::string_view name, std::string_view labels,
                      std::string_view help);
  Gauge* AddGauge(std::string_view name, std::string_view labels,
                  std::string_view help);
  Histogram* AddHistogram(std::string_view name, std::string_view labels,
                          std::string_view help);

  /// Prometheus text exposition of every registered metric, families
  /// grouped in first-registration order (HELP/TYPE once per family,
  /// histograms as cumulative `_bucket{le=...}` + `_sum` + `_count`).
  /// Deterministic for a fixed registration order and metric state.
  std::string RenderPrometheus() const;

  /// The process-wide registry the pipeline layers record into.
  static MetricsRegistry& Global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;    ///< family name
    std::string labels;  ///< label list without braces ("" = none)
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrAdd(Kind kind, std::string_view name, std::string_view labels,
                   std::string_view help);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// The MIME type of `RenderPrometheus` output.
inline constexpr std::string_view kPrometheusContentType =
    "text/plain; version=0.0.4";

/// \brief Merges several Prometheus exposition documents into one,
/// optionally stamping an extra label onto every sample of a document —
/// how `CanonRouter` aggregates its shards' `/metrics` under
/// `shard="k"` labels. Families keep first-appearance order; HELP/TYPE
/// are emitted once per family; samples keep per-document order.
class PrometheusAggregator {
 public:
  /// Folds one exposition document in. \p extra_label (e.g. `shard="0"`,
  /// empty for none) is prepended to every sample's label list,
  /// including histogram `_bucket`/`_sum`/`_count` series.
  void AddText(std::string_view text, std::string_view extra_label);

  std::string Render() const;

 private:
  struct Family {
    std::string name;
    std::string help;  ///< full "# HELP ..." line
    std::string type;  ///< full "# TYPE ..." line
    std::vector<std::string> samples;
  };
  Family* FindOrAddFamily(std::string_view name);
  std::vector<Family> families_;
};

}  // namespace jocl

#endif  // JOCL_OBS_METRICS_H_

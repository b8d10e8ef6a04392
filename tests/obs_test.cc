// Observability-layer tests: histogram bucket boundaries, sharded-cell
// merge under concurrent recorders, Prometheus exposition (golden
// rendering, family grouping, aggregation with extra labels), and the
// trace recorder — span nesting, per-track sequence determinism across
// thread counts, Chrome trace-event JSON well-formedness, and the stage
// clock: every pipeline `*_seconds` stat equals its spans' durations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "core/session.h"
#include "core/sharded_learner.h"
#include "core/signals.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jocl {
namespace {

// ---------- histogram buckets ------------------------------------------------

TEST(HistogramTest, BucketBoundariesArePowersOfTwoTimes1024) {
  EXPECT_EQ(Histogram::BucketBoundNanos(0), 1024u);
  EXPECT_EQ(Histogram::BucketBoundNanos(1), 2048u);
  EXPECT_EQ(Histogram::BucketBoundNanos(10), 1024u << 10);
  EXPECT_EQ(Histogram::BucketBoundNanos(23), 1024ull << 23);  // ~8.6s

  // A sample equal to a bound lands in that bucket; one past it spills
  // into the next. Zero is in the first bucket; everything beyond the
  // last finite bound is +Inf (index kBuckets).
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1024), 0u);
  EXPECT_EQ(Histogram::BucketOf(1025), 1u);
  EXPECT_EQ(Histogram::BucketOf(2048), 1u);
  EXPECT_EQ(Histogram::BucketOf(2049), 2u);
  EXPECT_EQ(Histogram::BucketOf(Histogram::BucketBoundNanos(23)), 23u);
  EXPECT_EQ(Histogram::BucketOf(Histogram::BucketBoundNanos(23) + 1),
            Histogram::kBuckets);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kBuckets);
}

TEST(HistogramTest, RecordAccumulatesBucketSumAndCount) {
  Histogram histogram;
  histogram.Record(100);    // bucket 0
  histogram.Record(1024);   // bucket 0
  histogram.Record(4000);   // bucket 2 (2048 < 4000 <= 4096)
  histogram.Record(1ull << 40);  // +Inf
  const Histogram::Snapshot snap = histogram.Read();
  EXPECT_EQ(snap.bucket[0], 2u);
  EXPECT_EQ(snap.bucket[1], 0u);
  EXPECT_EQ(snap.bucket[2], 1u);
  EXPECT_EQ(snap.bucket[Histogram::kBuckets], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum_ns, 100u + 1024u + 4000u + (1ull << 40));
}

// ---------- concurrent recording + merge-on-scrape ---------------------------

TEST(MetricsRegistryTest, ConcurrentRecordersMergeExactlyOnScrape) {
  MetricsRegistry registry;
  Counter* counter = registry.AddCounter("t_ops_total", "", "ops");
  Histogram* histogram =
      registry.AddHistogram("t_latency_seconds", "", "latency");
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 20000;

  // Scrape while recorders run: merged counts must never decrease
  // (each cell is monotonic and loads respect modification order).
  std::atomic<bool> stop{false};
  std::atomic<bool> scrape_failed{false};
  std::thread scraper([&] {
    uint64_t last = 0;
    while (!stop.load()) {
      const uint64_t now = counter->Value();
      if (now < last) scrape_failed.store(true);
      last = now;
      const Histogram::Snapshot snap = histogram->Read();
      if (snap.count > kThreads * kPerThread) scrape_failed.store(true);
    }
  });

  std::vector<std::thread> recorders;
  for (size_t t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        counter->Add();
        histogram->Record(t * 1000 + i);
      }
    });
  }
  for (std::thread& thread : recorders) thread.join();
  stop.store(true);
  scraper.join();

  EXPECT_FALSE(scrape_failed.load());
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  const Histogram::Snapshot final_snap = histogram->Read();
  EXPECT_EQ(final_snap.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i <= Histogram::kBuckets; ++i) {
    bucket_total += final_snap.bucket[i];
  }
  EXPECT_EQ(bucket_total, final_snap.count);
}

// ---------- Prometheus exposition --------------------------------------------

TEST(MetricsRegistryTest, RendersGoldenExposition) {
  MetricsRegistry registry;
  Counter* total = registry.AddCounter("t_requests_total", "", "Requests");
  Counter* ok =
      registry.AddCounter("t_requests_total", "code=\"200\"", "ignored");
  Gauge* generation = registry.AddGauge("t_generation", "", "Generation");
  total->Add(3);
  ok->Add();
  generation->Set(-1);
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP t_requests_total Requests\n"
            "# TYPE t_requests_total counter\n"
            "t_requests_total 3\n"
            "t_requests_total{code=\"200\"} 1\n"
            "# HELP t_generation Generation\n"
            "# TYPE t_generation gauge\n"
            "t_generation -1\n");
}

TEST(MetricsRegistryTest, GaugesRenderFractionsAndIntegers) {
  MetricsRegistry registry;
  Gauge* certificate =
      registry.AddGauge("t_certificate", "", "Max pending residual");
  Gauge* port = registry.AddGauge("t_port", "", "Port");
  certificate->SetDouble(9.99e-05);
  port->Set(100000000);
  EXPECT_EQ(certificate->DoubleValue(), 9.99e-05);
  EXPECT_EQ(port->Value(), 100000000);
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP t_certificate Max pending residual\n"
            "# TYPE t_certificate gauge\n"
            "t_certificate 9.99e-05\n"
            "# HELP t_port Port\n"
            "# TYPE t_port gauge\n"
            "t_port 100000000\n");
}

TEST(MetricsRegistryTest, RendersHistogramAsCumulativeSeries) {
  MetricsRegistry registry;
  Histogram* histogram = registry.AddHistogram(
      "t_latency_seconds", "endpoint=\"/lookup\"", "Request latency");
  histogram->Record(1000);  // bucket 0
  histogram->Record(1500);  // bucket 1
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE t_latency_seconds histogram"),
            std::string::npos)
      << text;
  // Cumulative: bucket 0 holds 1, bucket 1 (le="2.048e-06") holds 2,
  // and every later bucket including +Inf stays at 2.
  EXPECT_NE(text.find("t_latency_seconds_bucket{endpoint=\"/lookup\","
                      "le=\"1.024e-06\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("t_latency_seconds_bucket{endpoint=\"/lookup\","
                      "le=\"2.048e-06\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("t_latency_seconds_bucket{endpoint=\"/lookup\","
                      "le=\"+Inf\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("t_latency_seconds_sum{endpoint=\"/lookup\"}"),
            std::string::npos);
  EXPECT_NE(text.find("t_latency_seconds_count{endpoint=\"/lookup\"} 2\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ReregistrationReturnsTheSameHandle) {
  MetricsRegistry registry;
  Counter* first = registry.AddCounter("t_total", "a=\"1\"", "help");
  Counter* again = registry.AddCounter("t_total", "a=\"1\"", "other help");
  Counter* other_labels = registry.AddCounter("t_total", "a=\"2\"", "help");
  EXPECT_EQ(first, again);
  EXPECT_NE(first, other_labels);
  first->Add(2);
  again->Add(3);
  EXPECT_EQ(first->Value(), 5u);
}

TEST(PrometheusAggregatorTest, MergesDocumentsAndStampsExtraLabels) {
  MetricsRegistry own;
  own.AddCounter("t_requests_total", "", "Requests")->Add(7);
  MetricsRegistry shard;
  shard.AddCounter("t_requests_total", "", "Requests")->Add(2);
  shard.AddCounter("t_responses_total", "code=\"200\"", "Responses")->Add(1);
  shard.AddHistogram("t_latency_seconds", "", "Latency")->Record(1000);

  PrometheusAggregator aggregator;
  aggregator.AddText(own.RenderPrometheus(), "");
  aggregator.AddText(shard.RenderPrometheus(), "shard=\"0\"");
  const std::string text = aggregator.Render();

  // The unlabeled own sample and the relabeled shard sample share one
  // family block with a single HELP/TYPE header.
  const std::string expected_head =
      "# HELP t_requests_total Requests\n"
      "# TYPE t_requests_total counter\n"
      "t_requests_total 7\n"
      "t_requests_total{shard=\"0\"} 2\n";
  EXPECT_EQ(text.substr(0, expected_head.size()), expected_head) << text;
  // Existing labels get the extra label prepended.
  EXPECT_NE(text.find("t_responses_total{shard=\"0\",code=\"200\"} 1\n"),
            std::string::npos)
      << text;
  // Histogram series relabel too, including the le label.
  EXPECT_NE(text.find("t_latency_seconds_bucket{shard=\"0\","
                      "le=\"1.024e-06\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("t_latency_seconds_count{shard=\"0\"} 1\n"),
            std::string::npos);
  // _bucket/_sum/_count all fold into the t_latency_seconds family: its
  // TYPE line appears exactly once.
  size_t type_count = 0;
  for (size_t at = text.find("# TYPE t_latency_seconds histogram");
       at != std::string::npos;
       at = text.find("# TYPE t_latency_seconds histogram", at + 1)) {
    ++type_count;
  }
  EXPECT_EQ(type_count, 1u);
}

// ---------- trace recorder ---------------------------------------------------

TEST(TraceRecorderTest, NoGlobalRecorderMeansNoSpans) {
  ASSERT_EQ(TraceRecorder::Global(), nullptr);
  {
    ScopedSpan span("ignored");
    TraceTrackScope track("shard/", 3);
    ScopedSpan inner("also ignored");
  }
  TraceRecorder recorder;
  EXPECT_TRUE(recorder.Spans().empty());
}

TEST(TraceRecorderTest, NestedSpansRecordParentSeqAndContainment) {
  TraceRecorder recorder;
  {
    ScopedTraceSession session(&recorder);
    ScopedSpan root("root");
    {
      ScopedSpan child("child_a");
      ScopedSpan leaf("leaf");
    }
    ScopedSpan child_b("child_b");
  }
  const std::vector<TraceRecorder::Span> spans = recorder.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // Sorted by (track, seq); seqs are reserved at span START, so the
  // order is root, child_a, leaf, child_b even though children complete
  // before their parents.
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].seq, 0u);
  EXPECT_EQ(spans[0].parent_seq, -1);
  EXPECT_EQ(spans[1].name, "child_a");
  EXPECT_EQ(spans[1].seq, 1u);
  EXPECT_EQ(spans[1].parent_seq, 0);
  EXPECT_EQ(spans[2].name, "leaf");
  EXPECT_EQ(spans[2].seq, 2u);
  EXPECT_EQ(spans[2].parent_seq, 1);
  EXPECT_EQ(spans[3].name, "child_b");
  EXPECT_EQ(spans[3].seq, 3u);
  EXPECT_EQ(spans[3].parent_seq, 0);
  for (const TraceRecorder::Span& span : spans) {
    EXPECT_EQ(span.track, "main");
  }
  // Containment: every child's interval sits inside the root's.
  const TraceRecorder::Span& root = spans[0];
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns, root.start_ns) << spans[i].name;
    EXPECT_LE(spans[i].start_ns + spans[i].dur_ns,
              root.start_ns + root.dur_ns)
        << spans[i].name;
  }
}

TEST(TraceRecorderTest, TrackScopesIsolateThreadsAndSortNumerically) {
  TraceRecorder recorder;
  {
    ScopedTraceSession session(&recorder);
    ScopedSpan main_span("orchestrate");
    std::vector<std::thread> workers;
    for (size_t s : {10, 2, 0}) {
      workers.emplace_back([s] {
        TraceTrackScope track("shard/", s);
        // Inside a fresh track the parent resets: this span is a root
        // even though the spawning thread has "orchestrate" open.
        ScopedSpan span("shard_run");
        ScopedSpan inner("infer");
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const std::vector<TraceRecorder::Span> spans = recorder.Spans();
  ASSERT_EQ(spans.size(), 7u);
  // (length, lexicographic) track order: main, shard/0, shard/2, shard/10.
  EXPECT_EQ(spans[0].track, "main");
  EXPECT_EQ(spans[1].track, "shard/0");
  EXPECT_EQ(spans[3].track, "shard/2");
  EXPECT_EQ(spans[5].track, "shard/10");
  for (size_t i = 1; i < spans.size(); i += 2) {
    EXPECT_EQ(spans[i].name, "shard_run");
    EXPECT_EQ(spans[i].seq, 0u);
    EXPECT_EQ(spans[i].parent_seq, -1);
    EXPECT_EQ(spans[i + 1].name, "infer");
    EXPECT_EQ(spans[i + 1].seq, 1u);
    EXPECT_EQ(spans[i + 1].parent_seq, 0);
  }
}

TEST(TraceRecorderTest, StageClockSpanAddsItsRecordedDuration) {
  double seconds = 0.25;
  TraceRecorder recorder;
  {
    ScopedTraceSession session(&recorder);
    ScopedSpan outer("outer", &seconds);
    ScopedSpan inner("inner");
  }
  const std::vector<TraceRecorder::Span> spans = recorder.Spans();
  ASSERT_EQ(spans.size(), 2u);
  // Spans() sorts by seq: "outer" reserved 0, "inner" 1 under it.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].parent_seq, 0);
  // The sink accumulates: it adds the recorded dur_ns to what was there.
  EXPECT_NEAR((seconds - 0.25) * 1e9, static_cast<double>(spans[0].dur_ns),
              1.0);

  // With no recorder the span still times the stage, recording nothing.
  double untraced = 0.0;
  { ScopedSpan span("untraced", &untraced); }
  EXPECT_GE(untraced, 0.0);
  EXPECT_EQ(recorder.Spans().size(), 2u);
}

// Minimal JSON well-formedness check: balanced structure, valid string
// escapes, no trailing garbage. Enough to catch an unescaped quote or a
// missing comma without a full parser.
bool JsonWellFormed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

// Blanks every "ts" and "dur" value so two runs of the same workload can
// be compared byte-for-byte modulo timestamps.
std::string StripTimings(const std::string& json) {
  std::string out;
  size_t pos = 0;
  while (pos < json.size()) {
    const size_t ts = json.find("\"ts\":", pos);
    if (ts == std::string::npos) {
      out.append(json, pos, json.size() - pos);
      break;
    }
    // Every X event renders as …,"ts":N,"dur":N,"args":{…}.
    const size_t end = json.find(",\"args\"", ts);
    EXPECT_NE(end, std::string::npos) << json.substr(ts, 64);
    out.append(json, pos, ts - pos);
    out.append("\"ts\":0,\"dur\":0");
    pos = end;
  }
  return out;
}

TEST(TraceRecorderTest, ChromeJsonIsWellFormedAndEscapesNames) {
  TraceRecorder recorder;
  {
    ScopedTraceSession session(&recorder);
    // Literal split after \x01: "\x01c" would parse as hex 0x1c.
    ScopedSpan tricky("name \"with\" quotes\nand\tcontrol\x01" "chars");
    ScopedSpan args_span("with_args", "\"shard\":3,\"variables\":120");
  }
  const std::string json = recorder.ToChromeJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"name \\\"with\\\" quotes\\nand"
                      "\\tcontrol\\u0001chars\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\":3,\"variables\":120"), std::string::npos)
      << json;
}

// ---------- determinism across thread counts (the acceptance bar) ------------

class TraceDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(GenerateReVerb45K(0.05).MoveValueOrDie());
    signals_ = new SignalBundle(BuildSignals(*dataset_).MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete signals_;
    delete dataset_;
    signals_ = nullptr;
    dataset_ = nullptr;
  }

  /// Runs one full inference with \p threads workers under a fresh
  /// recorder and returns its Chrome JSON dump.
  static std::string TracedRun(size_t threads) {
    TraceRecorder recorder;
    {
      ScopedTraceSession session(&recorder);
      RuntimeOptions options;
      options.num_threads = threads;
      JoclRuntime runtime({}, options);
      JoclResult result =
          runtime.Infer(*dataset_, *signals_, dataset_->test_triples)
              .MoveValueOrDie();
      (void)result;
    }
    const std::string json = recorder.ToChromeJson();
    EXPECT_FALSE(recorder.Spans().empty());
    return json;
  }

  static Dataset* dataset_;
  static SignalBundle* signals_;
};

Dataset* TraceDeterminism::dataset_ = nullptr;
SignalBundle* TraceDeterminism::signals_ = nullptr;

TEST_F(TraceDeterminism, PipelineDumpIsByteIdenticalAcrossRunsAndThreads) {
  const std::string one_a = TracedRun(1);
  const std::string one_b = TracedRun(1);
  const std::string four_a = TracedRun(4);
  const std::string four_b = TracedRun(4);
  EXPECT_TRUE(JsonWellFormed(one_a));
  EXPECT_TRUE(JsonWellFormed(four_a));
  // Same workload, same logical tracks and seqs: byte-identical modulo
  // the ts/dur fields — across repeat runs AND across thread counts,
  // because spans land on plan-indexed tracks, never physical threads.
  EXPECT_EQ(StripTimings(one_a), StripTimings(one_b));
  EXPECT_EQ(StripTimings(four_a), StripTimings(four_b));
  EXPECT_EQ(StripTimings(one_a), StripTimings(four_a));
  // The pipeline stages the issue names are all present.
  for (const char* stage :
       {"\"build_problem\"", "\"signal_cache\"", "\"partition\"",
        "\"build_graph\"", "\"compile\"", "\"infer\"", "\"decode\"",
        "\"shard_run\""}) {
    EXPECT_NE(one_a.find(stage), std::string::npos) << stage;
  }
}

// ---------- one stage clock --------------------------------------------------

/// The same scale-0.05 world as TraceDeterminism.
class StageClock : public TraceDeterminism {
 protected:
  /// Asserts that \p seconds equals the summed dur_ns of every span named
  /// in \p names, within 1 ns per span, and returns how many there were.
  static size_t ExpectSpanSum(const std::vector<TraceRecorder::Span>& spans,
                              std::initializer_list<std::string_view> names,
                              double seconds, const char* field) {
    uint64_t total_ns = 0;
    size_t count = 0;
    for (const TraceRecorder::Span& span : spans) {
      for (std::string_view name : names) {
        if (span.name == name) {
          total_ns += span.dur_ns;
          ++count;
        }
      }
    }
    EXPECT_NEAR(seconds * 1e9, static_cast<double>(total_ns),
                static_cast<double>(count))
        << field;
    return count;
  }

  /// The PipelineStats stages, each against the spans that time it.
  static void ExpectPipelineStats(const std::vector<TraceRecorder::Span>& spans,
                                  const PipelineStats& stats) {
    EXPECT_EQ(ExpectSpanSum(spans, {"build_problem"}, stats.problem_seconds,
                            "problem_seconds"),
              1u);
    EXPECT_EQ(ExpectSpanSum(spans, {"signal_cache"}, stats.cache_seconds,
                            "cache_seconds"),
              1u);
    EXPECT_EQ(ExpectSpanSum(spans, {"partition"}, stats.partition_seconds,
                            "partition_seconds"),
              1u);
    EXPECT_EQ(ExpectSpanSum(spans, {"run_shards"}, stats.shard_seconds,
                            "shard_seconds"),
              1u);
    EXPECT_EQ(ExpectSpanSum(spans, {"decode"}, stats.decode_seconds,
                            "decode_seconds"),
              1u);
    // Two graph spans and one infer span per inferred shard.
    const size_t infer_spans =
        ExpectSpanSum(spans, {"infer"}, stats.infer_seconds, "infer_seconds");
    EXPECT_EQ(ExpectSpanSum(spans, {"build_graph", "compile"},
                            stats.graph_seconds, "graph_seconds"),
              2 * infer_spans);
  }
};

TEST_F(StageClock, StageStatsEqualSpanDurations) {
  {
    SCOPED_TRACE("JoclRuntime::Infer");
    TraceRecorder recorder;
    RuntimeStats stats;
    {
      ScopedTraceSession session(&recorder);
      RuntimeOptions options;
      options.num_threads = 2;
      JoclRuntime runtime({}, options);
      ASSERT_TRUE(runtime
                      .Infer(*dataset_, *signals_, dataset_->test_triples, {},
                             &stats)
                      .ok());
    }
    ExpectPipelineStats(recorder.Spans(), stats);
    EXPECT_GT(stats.shards, 0u);
  }

  JoclSession session(dataset_, signals_, {}, SessionOptions{2, 2});
  const std::vector<size_t>& stream = dataset_->test_triples;
  const std::vector<size_t> first(stream.begin(),
                                  stream.begin() + stream.size() / 2);
  const std::vector<size_t> retired(first.begin(),
                                    first.begin() + first.size() / 4);
  std::vector<double> retrained = Jocl::DefaultWeights();
  retrained[0] *= 1.5;
  auto traced_batch = [&](const char* label, auto&& mutate) {
    SCOPED_TRACE(label);
    TraceRecorder recorder;
    SessionStats stats;
    {
      ScopedTraceSession trace(&recorder);
      ASSERT_TRUE(mutate(&stats).ok());
    }
    ExpectPipelineStats(recorder.Spans(), stats);
    EXPECT_GT(stats.dirty_shards, 0u);
  };
  traced_batch("session add", [&](SessionStats* stats) {
    return session.AddTriples(first, stats);
  });
  traced_batch("session remove", [&](SessionStats* stats) {
    return session.RemoveTriples(retired, stats);
  });
  traced_batch("session UpdateWeights", [&](SessionStats* stats) {
    Status status = session.UpdateWeights(retrained, stats);
    EXPECT_TRUE(stats->frontend_reused);
    return status;
  });

  {
    SCOPED_TRACE("ShardedLearner::Learn");
    JoclOptions options;
    options.learner.iterations = 3;
    RuntimeOptions runtime;
    runtime.num_threads = 2;
    TraceRecorder recorder;
    LearnerRunStats stats;
    Result<LearnerResult> learned = Status::Internal("not run");
    {
      ScopedTraceSession trace(&recorder);
      learned = ShardedLearner(options, runtime)
                    .Learn(*dataset_, *signals_,
                           dataset_->validation_triples, {}, &stats);
    }
    ASSERT_TRUE(learned.ok()) << learned.status();
    const std::vector<TraceRecorder::Span> spans = recorder.Spans();
    EXPECT_EQ(ExpectSpanSum(spans, {"build_problem"}, stats.problem_seconds,
                            "problem_seconds"),
              1u);
    EXPECT_EQ(ExpectSpanSum(spans, {"signal_cache"}, stats.cache_seconds,
                            "cache_seconds"),
              1u);
    EXPECT_EQ(ExpectSpanSum(spans, {"partition"}, stats.partition_seconds,
                            "partition_seconds"),
              1u);
    EXPECT_EQ(ExpectSpanSum(spans, {"setup"}, stats.setup_seconds,
                            "setup_seconds"),
              1u);
    EXPECT_EQ(ExpectSpanSum(spans, {"ascent"}, stats.learn_seconds,
                            "learn_seconds"),
              1u);
    // One "iteration" span per trace entry, in iteration (seq) order.
    const std::vector<LearnerTrace>& trace = learned.ValueOrDie().trace;
    size_t iteration = 0;
    for (const TraceRecorder::Span& span : spans) {
      if (span.name != "iteration") continue;
      ASSERT_LT(iteration, trace.size());
      EXPECT_NEAR(trace[iteration].seconds * 1e9,
                  static_cast<double>(span.dur_ns), 1.0)
          << "iteration " << iteration;
      ++iteration;
    }
    EXPECT_EQ(iteration, trace.size());
    EXPECT_GT(iteration, 0u);
  }
}

// ---------- decode gauges ----------------------------------------------------

/// The same scale-0.05 world as TraceDeterminism.
class DecodeGauges : public TraceDeterminism {};

TEST_F(DecodeGauges, NilLinkRatioTracksTheLatestDecode) {
  // jocl_decode_nil_link_ratio{kind=...}: the share of NP / RP mentions
  // the latest result links to NIL, set by the runtime and the session.
  MetricsRegistry& global = MetricsRegistry::Global();
  Gauge* np = global.AddGauge("jocl_decode_nil_link_ratio", "kind=\"np\"", "");
  Gauge* rp = global.AddGauge("jocl_decode_nil_link_ratio", "kind=\"rp\"", "");
  auto nil_ratio = [](const std::vector<int64_t>& links) {
    size_t nil = 0;
    for (int64_t link : links) nil += link == kNilId ? 1 : 0;
    return static_cast<double>(nil) / static_cast<double>(links.size());
  };
  const std::vector<size_t>& stream = dataset_->test_triples;
  const JoclResult result =
      JoclRuntime().Infer(*dataset_, *signals_, stream).MoveValueOrDie();
  EXPECT_EQ(np->DoubleValue(), nil_ratio(result.np_link));
  EXPECT_EQ(rp->DoubleValue(), nil_ratio(result.rp_link));
  EXPECT_GT(np->DoubleValue(), 0.0);
  EXPECT_LT(np->DoubleValue(), 1.0);

  const std::vector<size_t> half(stream.begin(),
                                 stream.begin() + stream.size() / 2);
  JoclSession session(dataset_, signals_);
  ASSERT_TRUE(session.AddTriples(half).ok());
  EXPECT_EQ(np->DoubleValue(), nil_ratio(session.result().np_link));
  EXPECT_EQ(rp->DoubleValue(), nil_ratio(session.result().rp_link));

  // With linking ablated every mention is NIL.
  ASSERT_TRUE(JoclRuntime(JoclOptions::CanonicalizationOnly())
                  .Infer(*dataset_, *signals_, half)
                  .ok());
  EXPECT_EQ(np->DoubleValue(), 1.0);
  EXPECT_EQ(rp->DoubleValue(), 1.0);
}

}  // namespace
}  // namespace jocl

// Tests of the benchmark's own building blocks (harness.h). Run with
// `python3 jbench/run.py --test`; exits non-zero on the first failing
// check of any case and reports every failing case.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("  FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                  \
      return;                                                        \
    }                                                                \
  } while (0)

using namespace jbench;

void PercentileRule() {
  // Report a quantile only with >= 10 samples beyond it.
  CHECK(!QuantileReportable(19, 0.5));
  CHECK(QuantileReportable(20, 0.5));
  CHECK(!QuantileReportable(99, 0.9));
  CHECK(QuantileReportable(100, 0.9));
  CHECK(!QuantileReportable(999, 0.99));
  CHECK(QuantileReportable(1000, 0.99));
  CHECK(!QuantileReportable(0, 0.5));
  // Nearest rank: ceil(q * n), on unsorted input.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(NearestRank(100, 0.9) == 90);
  CHECK(Quantile(v, 0.9) == 90.0);
  CHECK(Quantile(v, 0.5) == 50.0);
  CHECK(Quantile({3.0, 1.0, 2.0}, 0.5) == 2.0);
  CHECK(Quantile({5.0}, 0.99) == 5.0);
}

struct Fixture {
  std::vector<size_t> triples;
  std::vector<size_t> component_of;
  std::vector<bool> eligible;
};

Fixture MakeFixture() {
  Fixture f;
  // 40 components: component 0 has 30 triples, components 1..39 hold
  // 1 to 3 triples each; component 39 has 12 (too big for the tail).
  size_t id = 100;
  auto add = [&](size_t component, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      f.triples.push_back(id++);
      f.component_of.push_back(component);
      f.eligible.push_back(id % 5 != 0);
    }
  };
  add(0, 30);
  for (size_t c = 1; c < 39; ++c) add(c, 1 + c % 3);
  add(39, 12);
  return f;
}

void PoolsAreDeterministicAndClassed() {
  const Fixture f = MakeFixture();
  const Pools a = ChoosePools(f.triples, f.component_of, 0, f.eligible, 20,
                              6, 8, 42);
  const Pools b = ChoosePools(f.triples, f.component_of, 0, f.eligible, 20,
                              6, 8, 42);
  const Pools c = ChoosePools(f.triples, f.component_of, 0, f.eligible, 20,
                              6, 8, 43);
  CHECK(a.tail == b.tail && a.head == b.head);
  CHECK(a.tail != c.tail || a.head != c.head);
  CHECK(a.head.size() == 6 && a.tail.size() == 20);
  CHECK(std::is_sorted(a.head.begin(), a.head.end()));
  CHECK(std::is_sorted(a.tail.begin(), a.tail.end()));
  std::map<size_t, size_t> component, index;
  for (size_t i = 0; i < f.triples.size(); ++i) {
    component[f.triples[i]] = f.component_of[i];
    index[f.triples[i]] = i;
  }
  for (size_t t : a.head) CHECK(component[t] == 0);
  std::set<size_t> used;
  for (size_t t : a.tail) {
    CHECK(component[t] != 0 && component[t] != 39);
    CHECK(f.eligible[index[t]]);
    CHECK(used.insert(component[t]).second);  // one per component
  }
  // The head draw does not depend on tail eligibility or tail count.
  const std::vector<bool> none(f.triples.size(), false);
  const Pools d = ChoosePools(f.triples, f.component_of, 0, none, 0, 6, 8, 42);
  CHECK(d.head == a.head && d.tail.empty());
}

void OpSequenceIsWellFormed() {
  const size_t tails = 12, heads = 4, rounds = 30, per_round = 5;
  const std::vector<Op> ops = BuildOpSequence(tails, heads, rounds, per_round, 7);
  const std::vector<Op> same = BuildOpSequence(tails, heads, rounds, per_round, 7);
  const std::vector<Op> other = BuildOpSequence(tails, heads, rounds, per_round, 8);
  auto key = [](const Op& op) {
    return std::make_pair(IsHead(op.kind), op.batch);
  };
  auto equal = [&](const std::vector<Op>& x, const std::vector<Op>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].kind != y[i].kind || x[i].batch != y[i].batch) return false;
    }
    return true;
  };
  CHECK(equal(ops, same));
  CHECK(!equal(ops, other));
  const size_t per = 2 * per_round + 2;
  CHECK(ops.size() == rounds * per);
  std::map<std::pair<bool, size_t>, size_t> last_add;
  size_t counts[kOpKinds] = {0, 0, 0, 0};
  for (size_t r = 0; r < rounds; ++r) {
    std::map<std::pair<bool, size_t>, size_t> active;  // -> add position
    for (size_t i = r * per; i < (r + 1) * per; ++i) {
      const Op& op = ops[i];
      ++counts[static_cast<size_t>(op.kind)];
      CHECK(op.batch < (IsHead(op.kind) ? heads : tails));
      const bool add = op.kind == OpKind::kTailAdd || op.kind == OpKind::kHeadAdd;
      if (add) {
        CHECK(active.count(key(op)) == 0);  // distinct within a round
        active[key(op)] = i;
        // A batch comes back only after the others had their turn.
        auto prev = last_add.find(key(op));
        if (prev != last_add.end()) CHECK(i - prev->second >= 8);
        last_add[key(op)] = i;
      } else {
        CHECK(active.count(key(op)) == 1);  // retract follows its add
        // Well inside the session's stale retention of 8 batches.
        CHECK(i - active[key(op)] <= 7);
        active.erase(key(op));
      }
    }
    CHECK(active.empty());  // the round leaves the prefill state
  }
  CHECK(counts[0] == rounds * per_round && counts[1] == rounds * per_round);
  CHECK(counts[2] == rounds && counts[3] == rounds);
}

void SplitBatchesCoversPool() {
  const auto b = SplitBatches({1, 2, 3, 4, 5, 6, 7}, 3);
  CHECK(b.size() == 3 && b[0] == std::vector<size_t>({1, 2, 3}) &&
        b[2] == std::vector<size_t>({7}));
}

void OpClassGuard() {
  // The boundary: half of the head's variables.
  CHECK(OpClassHolds(OpKind::kHeadAdd, 1200, 2400));
  CHECK(OpClassHolds(OpKind::kTailAdd, 1199, 2400));
  CHECK(!OpClassHolds(OpKind::kTailAdd, 1200, 2400));
  CHECK(OpClassHolds(OpKind::kTailAdd, 9, 2433));
  CHECK(!OpClassHolds(OpKind::kTailAdd, 2421, 2433));
  CHECK(OpClassHolds(OpKind::kHeadAdd, 2407, 2433));
  CHECK(!OpClassHolds(OpKind::kHeadAdd, 0, 2433));
}

void MetricNameCharset() {
  for (const char* ok : {"setup_s", "core.graph_builder.build_ms", "a",
                         "graph.flat_lbp.head_run_ms", "9lives", "x-y"}) {
    CHECK(ValidMetricName(ok));
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "p50%",
                          "slash/name", "tab\tname", "ünï"}) {
    CHECK(!ValidMetricName(bad));
  }
  CHECK(!ValidMetricName(std::string(65, 'a')));
  CHECK(ValidMetricName(std::string(64, 'a')));
  for (const char* ok : {"ms", "s", "1/s", "count", "%", "ratio"}) {
    CHECK(ValidUnit(ok));
  }
  CHECK(!ValidUnit("") && !ValidUnit("m s") && !ValidUnit(std::string(17, 'u')));
}

void OutputSchema() {
  const std::vector<Metric> metrics = {{"latency_ms", 1.2034567890123457, "ms"},
                                       {"setup_s", 0.8127, "s"}};
  const std::string line = RenderResult(true, 1000, 0, metrics);
  CHECK(line ==
        "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": "
        "{\"latency_ms\": {\"value\": 1.2034567890123458, \"unit\": \"ms\"}, "
        "\"setup_s\": {\"value\": 0.81269999999999998, \"unit\": \"s\"}}}");
  CHECK(IsValidJson(line));
  CHECK(line.find('\n') == std::string::npos);
  // Full precision: the printed value reads back as the same double.
  const size_t at = line.find("\"value\": ") + 9;
  CHECK(std::strtod(line.c_str() + at, nullptr) == metrics[0].value);
  const std::string failed = RenderResult(false, 3, 2, {});
  CHECK(IsValidJson(failed) &&
        failed.find("\"correct\": false") != std::string::npos);
}

void JsonValidator() {
  for (const char* ok :
       {"{}", "[]", "0", "-1.5e+3", "\"a\\u00e9\\n\"", " {\"a\": [1, true, null]} ",
        "{\"surface\":\"x\",\"members\":[{\"id\":1}],\"link\":null}"}) {
    CHECK(IsValidJson(ok));
  }
  for (const char* bad : {"", "{", "{\"a\":}", "[1,]", "01", "1.", "\"\\x\"",
                          "{\"a\":1}{}", "nul", "{'a':1}", "\"tab\there\""}) {
    CHECK(!IsValidJson(bad));
  }
}

void Tracing() {
  SpanRecorder rec;
  int root;
  {
    ScopedSpan outer(&rec, "outer");
    root = outer.id();
    ScopedSpan inner(&rec, "inner", root);
  }
  { ScopedSpan inner(&rec, "inner", root); }
  const std::vector<Span> spans = rec.Spans();
  CHECK(spans.size() == 3);
  CHECK(spans[0].parent == -1 && spans[1].parent == root);
  CHECK(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
  CHECK(rec.CpuDurations("inner").size() == 2);
  CHECK(spans[0].cpu >= 0.0 && spans[0].cpu <= spans[0].end - spans[0].start + 1e-3);
  // The calling thread's CPU clock, read directly and through its tid.
  const double own = ThreadCpuSeconds();
  const double by_tid = ThreadCpuSeconds(static_cast<int>(gettid()));
  CHECK(own > 0.0 && by_tid >= own && by_tid - own < 0.5);
  ScopedSpan off(nullptr, "ignored");  // a null recorder records nothing
  CHECK(off.id() == -1);
  // Union coverage counts overlaps once and clips to the window.
  CHECK(UnionCoverage({{0, 4}, {2, 6}, {8, 12}}, 0, 10) == 0.8);
  CHECK(UnionCoverage({}, 0, 1) == 0.0);
}

}  // namespace

int main() {
  struct Case {
    const char* name;
    void (*run)();
  } cases[] = {{"PercentileRule", PercentileRule},
               {"PoolsAreDeterministicAndClassed", PoolsAreDeterministicAndClassed},
               {"OpSequenceIsWellFormed", OpSequenceIsWellFormed},
               {"SplitBatchesCoversPool", SplitBatchesCoversPool},
               {"OpClassGuard", OpClassGuard},
               {"MetricNameCharset", MetricNameCharset},
               {"OutputSchema", OutputSchema},
               {"JsonValidator", JsonValidator},
               {"Tracing", Tracing}};
  int failed_cases = 0;
  for (const Case& c : cases) {
    const int before = g_failures;
    c.run();
    const bool ok = g_failures == before;
    failed_cases += ok ? 0 : 1;
    std::printf("[%s] %s\n", ok ? "  OK  " : " FAIL ", c.name);
  }
  std::printf("%d of %zu cases failed\n", failed_cases,
              sizeof(cases) / sizeof(cases[0]));
  return failed_cases == 0 ? 0 : 1;
}

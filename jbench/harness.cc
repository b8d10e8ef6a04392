#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <time.h>
#include <utility>

#include "util/rng.h"

namespace jbench {

// ---- quantiles --------------------------------------------------------

size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::max<size_t>(1, static_cast<size_t>(rank));
}

bool QuantileReportable(size_t n, double q) {
  return n > 0 && n - std::min(n, NearestRank(n, q)) >= kSamplesBeyondQuantile;
}

double Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), q) - 1];
}

// ---- result schema ----------------------------------------------------

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  for (char c : name) {
    if (!IsAlnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!IsAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

std::string RenderResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // Non-finite values are not JSON; they only arise from a bug upstream
    // and render as null so the result line stays parseable.
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---- strict JSON ------------------------------------------------------

namespace {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  bool Document() {
    SkipWs();
    if (!Value(0)) return false;
    SkipWs();
    return i_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipWs() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool Eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool Literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }
  bool Digits() {
    size_t start = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return i_ > start;
  }
  bool Number() {
    Eat('-');
    if (Eat('0')) {
      // no leading zeros
    } else if (!Digits()) {
      return false;
    }
    if (Eat('.') && !Digits()) return false;
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (!Eat('+')) Eat('-');
      if (!Digits()) return false;
    }
    return true;
  }
  bool String() {
    if (!Eat('"')) return false;
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        const char e = s_[i_++];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            if (i_ >= s_.size() || !std::isxdigit(
                                       static_cast<unsigned char>(s_[i_]))) {
              return false;
            }
            ++i_;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool Value(int depth) {
    if (depth > kMaxDepth || i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      SkipWs();
      if (Eat('}')) return true;
      do {
        SkipWs();
        if (!String()) return false;
        SkipWs();
        if (!Eat(':')) return false;
        SkipWs();
        if (!Value(depth + 1)) return false;
        SkipWs();
      } while (Eat(','));
      return Eat('}');
    }
    if (c == '[') {
      ++i_;
      SkipWs();
      if (Eat(']')) return true;
      do {
        SkipWs();
        if (!Value(depth + 1)) return false;
        SkipWs();
      } while (Eat(','));
      return Eat(']');
    }
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  std::string_view s_;
  size_t i_ = 0;
};

}  // namespace

bool IsValidJson(std::string_view text) { return JsonChecker(text).Document(); }

// ---- seeded inputs ----------------------------------------------------

Pools ChoosePools(const std::vector<size_t>& triples,
                  const std::vector<size_t>& component_of, size_t largest,
                  const std::vector<bool>& tail_eligible, size_t tail_count, size_t head_count,
                  size_t max_tail_component, uint64_t seed) {
  std::map<size_t, std::vector<size_t>> members;  // component -> triples
  std::map<size_t, std::vector<size_t>> eligible;
  for (size_t i = 0; i < triples.size(); ++i) {
    members[component_of[i]].push_back(triples[i]);
    if (tail_eligible[i]) eligible[component_of[i]].push_back(triples[i]);
  }
  jocl::Rng rng(seed);
  Pools pools;
  std::vector<size_t> head = members[largest];
  rng.Shuffle(&head);
  head.resize(std::min(head.size(), head_count));
  // One triple from each eligible component, components in seeded order.
  std::vector<size_t> tail;
  for (auto& [component, list] : eligible) {
    if (component == largest || members[component].size() > max_tail_component) {
      continue;
    }
    tail.push_back(list[rng.UniformUint64(list.size())]);
  }
  rng.Shuffle(&tail);
  tail.resize(std::min(tail.size(), tail_count));
  std::sort(head.begin(), head.end());
  std::sort(tail.begin(), tail.end());
  pools.head = std::move(head);
  pools.tail = std::move(tail);
  return pools;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kTailAdd:
      return "tail_add";
    case OpKind::kTailRetract:
      return "tail_retract";
    case OpKind::kHeadAdd:
      return "head_add";
    case OpKind::kHeadRetract:
      return "head_retract";
  }
  return "?";
}

std::vector<Op> BuildOpSequence(size_t tail_batches, size_t head_batches,
                                size_t rounds, size_t tail_per_round,
                                uint64_t seed) {
  jocl::Rng rng(seed);
  std::vector<Op> ops;
  tail_per_round = std::min(tail_per_round, tail_batches);
  // Batches are taken in a fixed seeded cyclic order, so a batch comes
  // back only after every other batch has been used once.
  std::vector<size_t> tail_order(tail_batches), head_order(head_batches);
  for (size_t i = 0; i < tail_batches; ++i) tail_order[i] = i;
  for (size_t i = 0; i < head_batches; ++i) head_order[i] = i;
  rng.Shuffle(&tail_order);
  rng.Shuffle(&head_order);
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<size_t> tails;
    for (size_t j = 0; j < tail_per_round; ++j) {
      tails.push_back(tail_order[(r * tail_per_round + j) % tail_batches]);
    }
    // This round's adds in seeded order; each retract is scheduled 1 to
    // kMaxRetractDelay ops after its add and emitted once due.
    std::vector<Op> adds;
    for (size_t t : tails) adds.push_back({OpKind::kTailAdd, t});
    if (head_batches > 0) {
      adds.push_back({OpKind::kHeadAdd, head_order[r % head_batches]});
    }
    rng.Shuffle(&adds);
    struct Pending {
      Op op;
      size_t due;
    };
    std::vector<Pending> pending;
    size_t next_add = 0;
    for (size_t pos = 0; next_add < adds.size() || !pending.empty(); ++pos) {
      auto earliest = std::min_element(
          pending.begin(), pending.end(),
          [](const Pending& x, const Pending& y) { return x.due < y.due; });
      const bool retract =
          next_add == adds.size() ||
          (earliest != pending.end() && earliest->due <= pos);
      if (retract) {
        ops.push_back(earliest->op);
        pending.erase(earliest);
        continue;
      }
      Op add = adds[next_add++];
      ops.push_back(add);
      add.kind = add.kind == OpKind::kHeadAdd ? OpKind::kHeadRetract
                                              : OpKind::kTailRetract;
      pending.push_back({add, pos + 1 + rng.UniformUint64(kMaxRetractDelay)});
    }
  }
  return ops;
}

std::vector<std::vector<size_t>> SplitBatches(const std::vector<size_t>& pool,
                                              size_t batch_size) {
  std::vector<std::vector<size_t>> batches;
  for (size_t i = 0; i < pool.size(); i += batch_size) {
    batches.emplace_back(pool.begin() + i,
                         pool.begin() + std::min(pool.size(), i + batch_size));
  }
  return batches;
}

bool OpClassHolds(OpKind kind, size_t dirty_variables, size_t head_variables) {
  const bool dirtied_head = dirty_variables * 2 >= head_variables;
  return dirtied_head == IsHead(kind);
}

// ---- tracing ----------------------------------------------------------

double NowSeconds() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds(int tid) {
  // The kernel's per-thread CPU clock id (what pthread_getcpuclockid
  // returns): ~tid in the upper bits, CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED.
  const clockid_t clock = static_cast<clockid_t>((~tid) * 8 + 6);
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return -1.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int SpanRecorder::Begin(std::string name, int parent) {
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), now, -1.0, 0.0, parent});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int id, double cpu_seconds) {
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
  spans_[static_cast<size_t>(id)].cpu = cpu_seconds;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::CpuDurations(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end >= 0) out.push_back(span.cpu);
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::vector<Span> spans = Spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"cpu_s\": %.9f, \"parent\": %d}%s\n",
                 i, spans[i].name.c_str(), spans[i].start, spans[i].end,
                 spans[i].cpu, spans[i].parent,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name, int parent)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->Begin(std::move(name), parent);
  cpu_start_ = ThreadCpuSeconds();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) recorder_->End(id_, ThreadCpuSeconds() - cpu_start_);
}

double UnionCoverage(std::vector<std::pair<double, double>> intervals,
                     double start, double end) {
  if (end <= start) return 0.0;
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = start;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, end);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered / (end - start);
}

}  // namespace jbench

#include "obs/metrics.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace jocl {
namespace {

std::atomic<size_t> g_next_slot{0};

/// Locale-independent shortest-round-trip double, the weights_io idiom.
void AppendDouble(std::string* out, double value) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  if (res.ec == std::errc()) {
    out->append(buf, res.ptr - buf);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out->append(buf);
  }
}

void AppendUint(std::string* out, uint64_t value) {
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, res.ptr - buf);
}

void AppendInt(std::string* out, int64_t value) {
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, res.ptr - buf);
}

/// Integral gauge values (ports, generations, -1 sentinels) as integers;
/// fractional ones as shortest-round-trip doubles.
void AppendGauge(std::string* out, double value) {
  if (value == std::trunc(value) && std::fabs(value) < 9007199254740992.0) {
    AppendInt(out, static_cast<int64_t>(value));
  } else {
    AppendDouble(out, value);
  }
}

/// `name` or `name{labels}` with an optional suffix spliced onto the
/// family name (histogram series) and an optional extra label.
void AppendSample(std::string* out, std::string_view family,
                  std::string_view suffix, std::string_view labels,
                  std::string_view extra_label) {
  out->append(family);
  out->append(suffix);
  if (!labels.empty() || !extra_label.empty()) {
    out->push_back('{');
    out->append(labels);
    if (!labels.empty() && !extra_label.empty()) out->push_back(',');
    out->append(extra_label);
    out->push_back('}');
  }
  out->push_back(' ');
}

void RenderHistogram(std::string* out, std::string_view family,
                     std::string_view labels, const Histogram::Snapshot& snap) {
  uint64_t cumulative = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    cumulative += snap.bucket[i];
    std::string le = "le=\"";
    AppendDouble(&le, static_cast<double>(Histogram::BucketBoundNanos(i)) * 1e-9);
    le.push_back('"');
    std::string bucket_labels(labels);
    if (!bucket_labels.empty()) bucket_labels.push_back(',');
    bucket_labels.append(le);
    AppendSample(out, family, "_bucket", bucket_labels, "");
    AppendUint(out, cumulative);
    out->push_back('\n');
  }
  cumulative += snap.bucket[Histogram::kBuckets];
  std::string inf_labels(labels);
  if (!inf_labels.empty()) inf_labels.push_back(',');
  inf_labels.append("le=\"+Inf\"");
  AppendSample(out, family, "_bucket", inf_labels, "");
  AppendUint(out, cumulative);
  out->push_back('\n');
  AppendSample(out, family, "_sum", labels, "");
  AppendDouble(out, static_cast<double>(snap.sum_ns) * 1e-9);
  out->push_back('\n');
  AppendSample(out, family, "_count", labels, "");
  AppendUint(out, snap.count);
  out->push_back('\n');
}

}  // namespace

size_t MetricCellSlot() {
  thread_local size_t slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kMetricCells;
  return slot;
}

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Histogram::Snapshot Histogram::Read() const {
  Snapshot snap;
  for (const Cell& cell : cells_) {
    for (size_t i = 0; i <= kBuckets; ++i) {
      snap.bucket[i] += cell.bucket[i].load(std::memory_order_relaxed);
    }
    snap.sum_ns += cell.sum_ns.load(std::memory_order_relaxed);
    snap.count += cell.count.load(std::memory_order_relaxed);
  }
  return snap;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrAdd(Kind kind,
                                                   std::string_view name,
                                                   std::string_view labels,
                                                   std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->name == name && entry->labels == labels) {
      return entry.get();
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = kind;
  entry->name.assign(name);
  entry->labels.assign(labels);
  entry->help.assign(help);
  switch (kind) {
    case Kind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

Counter* MetricsRegistry::AddCounter(std::string_view name,
                                     std::string_view labels,
                                     std::string_view help) {
  return FindOrAdd(Kind::kCounter, name, labels, help)->counter.get();
}

Gauge* MetricsRegistry::AddGauge(std::string_view name,
                                 std::string_view labels,
                                 std::string_view help) {
  return FindOrAdd(Kind::kGauge, name, labels, help)->gauge.get();
}

Histogram* MetricsRegistry::AddHistogram(std::string_view name,
                                         std::string_view labels,
                                         std::string_view help) {
  return FindOrAdd(Kind::kHistogram, name, labels, help)->histogram.get();
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(entries_.size() * 128);
  // Families render grouped: all series of a family follow its
  // HELP/TYPE header, in first-registration order.
  std::vector<const Entry*> done;
  for (const auto& head : entries_) {
    bool seen = false;
    for (const Entry* d : done) {
      if (d->name == head->name) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    done.push_back(head.get());
    out.append("# HELP ").append(head->name).push_back(' ');
    out.append(head->help).push_back('\n');
    out.append("# TYPE ").append(head->name).push_back(' ');
    switch (head->kind) {
      case Kind::kCounter: out.append("counter"); break;
      case Kind::kGauge: out.append("gauge"); break;
      case Kind::kHistogram: out.append("histogram"); break;
    }
    out.push_back('\n');
    for (const auto& entry : entries_) {
      if (entry->name != head->name) continue;
      switch (entry->kind) {
        case Kind::kCounter:
          AppendSample(&out, entry->name, "", entry->labels, "");
          AppendUint(&out, entry->counter->Value());
          out.push_back('\n');
          break;
        case Kind::kGauge:
          AppendSample(&out, entry->name, "", entry->labels, "");
          AppendGauge(&out, entry->gauge->DoubleValue());
          out.push_back('\n');
          break;
        case Kind::kHistogram:
          RenderHistogram(&out, entry->name, entry->labels,
                          entry->histogram->Read());
          break;
      }
    }
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

/// The family a sample line belongs to: the metric name with any
/// histogram series suffix stripped.
std::string_view FamilyOfSample(std::string_view line) {
  size_t end = line.find_first_of("{ ");
  std::string_view name = line.substr(0, end == std::string_view::npos
                                             ? line.size()
                                             : end);
  for (std::string_view suffix : {std::string_view("_bucket"),
                                  std::string_view("_sum"),
                                  std::string_view("_count")}) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return name.substr(0, name.size() - suffix.size());
    }
  }
  return name;
}

/// Re-emits a sample line with \p extra_label prepended to its labels.
std::string RelabelSample(std::string_view line, std::string_view extra_label) {
  if (extra_label.empty()) return std::string(line);
  std::string out;
  out.reserve(line.size() + extra_label.size() + 2);
  size_t brace = line.find('{');
  size_t space = line.find(' ');
  if (brace != std::string_view::npos &&
      (space == std::string_view::npos || brace < space)) {
    out.append(line.substr(0, brace + 1));
    out.append(extra_label);
    // An empty label set "{}" is not produced by our renderer, but be
    // robust: only add the comma when labels follow.
    if (brace + 1 < line.size() && line[brace + 1] != '}') out.push_back(',');
    out.append(line.substr(brace + 1));
  } else {
    size_t name_end = space == std::string_view::npos ? line.size() : space;
    out.append(line.substr(0, name_end));
    out.push_back('{');
    out.append(extra_label);
    out.push_back('}');
    out.append(line.substr(name_end));
  }
  return out;
}

}  // namespace

PrometheusAggregator::Family* PrometheusAggregator::FindOrAddFamily(
    std::string_view name) {
  for (Family& family : families_) {
    if (family.name == name) return &family;
  }
  families_.push_back(Family{});
  families_.back().name.assign(name);
  return &families_.back();
}

void PrometheusAggregator::AddText(std::string_view text,
                                   std::string_view extra_label) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (line.empty()) continue;
    if (line.substr(0, 7) == "# HELP " || line.substr(0, 7) == "# TYPE ") {
      std::string_view rest = line.substr(7);
      size_t name_end = rest.find(' ');
      std::string_view name =
          rest.substr(0, name_end == std::string_view::npos ? rest.size()
                                                            : name_end);
      Family* family = FindOrAddFamily(name);
      if (line[2] == 'H') {
        if (family->help.empty()) family->help.assign(line);
      } else {
        if (family->type.empty()) family->type.assign(line);
      }
      continue;
    }
    if (line[0] == '#') continue;
    Family* family = FindOrAddFamily(FamilyOfSample(line));
    family->samples.push_back(RelabelSample(line, extra_label));
  }
}

std::string PrometheusAggregator::Render() const {
  std::string out;
  for (const Family& family : families_) {
    if (!family.help.empty()) out.append(family.help).push_back('\n');
    if (!family.type.empty()) out.append(family.type).push_back('\n');
    for (const std::string& sample : family.samples) {
      out.append(sample).push_back('\n');
    }
  }
  return out;
}

}  // namespace jocl

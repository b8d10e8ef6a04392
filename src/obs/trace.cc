#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "obs/metrics.h"

namespace jocl {

std::atomic<TraceRecorder*> TraceRecorder::global_{nullptr};

namespace obs_internal {
namespace {
thread_local std::string t_track = "main";
thread_local int64_t t_parent_seq = -1;
}  // namespace

const std::string& CurrentTrack() { return t_track; }
void SetCurrentTrack(std::string track) { t_track = std::move(track); }
int64_t CurrentParentSeq() { return t_parent_seq; }
void SetCurrentParentSeq(int64_t seq) { t_parent_seq = seq; }
}  // namespace obs_internal

namespace {

/// Tracks sort by (length, lexicographic) so "shard/2" < "shard/10"
/// without parsing — short numeric suffixes order naturally.
bool TrackLess(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return a < b;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
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

/// Nanoseconds as fixed-point microseconds ("12.345") — chrome's `ts`
/// unit, locale-independent.
void AppendMicros(std::string* out, uint64_t ns) {
  AppendUint(out, ns / 1000);
  char buf[8];
  std::snprintf(buf, sizeof(buf), ".%03u",
                static_cast<unsigned>(ns % 1000));
  out->append(buf);
}

}  // namespace

uint64_t TraceRecorder::NextSeqLocked(std::string_view track) {
  for (TrackState& state : tracks_) {
    if (state.name == track) return state.next_seq++;
  }
  tracks_.push_back(TrackState{});
  tracks_.back().name.assign(track);
  return tracks_.back().next_seq++;
}

uint64_t TraceRecorder::ReserveSeq(std::string_view track) {
  std::lock_guard<std::mutex> lock(mu_);
  return NextSeqLocked(track);
}

void TraceRecorder::AddSpan(std::string_view name, std::string_view track,
                            uint64_t start_ns, uint64_t dur_ns, uint64_t seq,
                            int64_t parent_seq, std::string_view args) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{});
  Span& span = spans_.back();
  span.name.assign(name);
  span.track.assign(track);
  span.start_ns = start_ns;
  span.dur_ns = dur_ns;
  span.seq = seq;
  span.parent_seq = parent_seq;
  span.args.assign(args);
}

std::vector<TraceRecorder::Span> TraceRecorder::Spans() const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.track != b.track) return TrackLess(a.track, b.track);
    return a.seq < b.seq;
  });
  return spans;
}

std::string TraceRecorder::ToChromeJson() const {
  std::vector<Span> spans = Spans();
  // Track index = tid. Sorted (length, lex) so the numbering is stable
  // across runs and thread counts.
  std::vector<std::string> tracks;
  for (const Span& span : spans) {
    if (std::find(tracks.begin(), tracks.end(), span.track) == tracks.end()) {
      tracks.push_back(span.track);
    }
  }
  std::sort(tracks.begin(), tracks.end(), TrackLess);
  auto tid_of = [&tracks](const std::string& track) {
    return static_cast<size_t>(
        std::find(tracks.begin(), tracks.end(), track) - tracks.begin());
  };

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (size_t t = 0; t < tracks.size(); ++t) {
    if (!first) out.append(",\n");
    first = false;
    out.append("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
    AppendUint(&out, t);
    out.append(",\"args\":{\"name\":");
    AppendJsonString(&out, tracks[t]);
    out.append("}}");
  }
  for (const Span& span : spans) {
    if (!first) out.append(",\n");
    first = false;
    out.append("{\"name\":");
    AppendJsonString(&out, span.name);
    out.append(",\"cat\":\"jocl\",\"ph\":\"X\",\"pid\":1,\"tid\":");
    AppendUint(&out, tid_of(span.track));
    out.append(",\"ts\":");
    AppendMicros(&out, span.start_ns);
    out.append(",\"dur\":");
    AppendMicros(&out, span.dur_ns);
    out.append(",\"args\":{\"seq\":");
    AppendUint(&out, span.seq);
    out.append(",\"parent_seq\":");
    AppendInt(&out, span.parent_seq);
    if (!span.args.empty()) {
      out.push_back(',');
      out.append(span.args);
    }
    out.append("}}");
  }
  out.append("\n]}\n");
  return out;
}

bool TraceRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::string json = ToChromeJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int rc = std::fclose(f);
  return written == json.size() && rc == 0;
}

TraceTrackScope::TraceTrackScope(std::string_view track) {
  if (TraceRecorder::Global() == nullptr) return;
  active_ = true;
  saved_ = obs_internal::CurrentTrack();
  saved_parent_ = obs_internal::CurrentParentSeq();
  obs_internal::SetCurrentTrack(std::string(track));
  obs_internal::SetCurrentParentSeq(-1);
}

TraceTrackScope::TraceTrackScope(std::string_view prefix, size_t index) {
  if (TraceRecorder::Global() == nullptr) return;
  active_ = true;
  saved_ = obs_internal::CurrentTrack();
  saved_parent_ = obs_internal::CurrentParentSeq();
  std::string track(prefix);
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf),
                           static_cast<uint64_t>(index));
  track.append(buf, res.ptr - buf);
  obs_internal::SetCurrentTrack(std::move(track));
  obs_internal::SetCurrentParentSeq(-1);
}

TraceTrackScope::~TraceTrackScope() {
  if (!active_) return;
  obs_internal::SetCurrentTrack(std::move(saved_));
  obs_internal::SetCurrentParentSeq(saved_parent_);
}

ScopedSpan::ScopedSpan(std::string_view name)
    : ScopedSpan(name, std::string()) {}

ScopedSpan::ScopedSpan(std::string_view name, std::string args_json) {
  recorder_ = TraceRecorder::Global();
  if (recorder_ == nullptr) return;
  name_.assign(name);
  args_ = std::move(args_json);
  parent_seq_ = obs_internal::CurrentParentSeq();
  seq_ = recorder_->ReserveSeq(obs_internal::CurrentTrack());
  obs_internal::SetCurrentParentSeq(static_cast<int64_t>(seq_));
  start_ns_ = MonotonicNanos();
}

ScopedSpan::ScopedSpan(std::string_view name, double* seconds)
    : ScopedSpan(name, std::string()) {
  seconds_ = seconds;
  if (recorder_ == nullptr) start_ns_ = MonotonicNanos();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr && seconds_ == nullptr) return;
  const uint64_t dur_ns = MonotonicNanos() - start_ns_;
  if (seconds_ != nullptr) *seconds_ += static_cast<double>(dur_ns) * 1e-9;
  if (recorder_ == nullptr) return;
  obs_internal::SetCurrentParentSeq(parent_seq_);
  recorder_->AddSpan(name_, obs_internal::CurrentTrack(), start_ns_, dur_ns,
                     seq_, parent_seq_, args_);
}

}  // namespace jocl

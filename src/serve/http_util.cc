#include "serve/http_util.h"

#include <charconv>

namespace jocl {
namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Decodes the query-string byte at text[*i] — '+' is a space, a valid
/// `%XY` escape its byte, anything else itself — and moves *i past it.
char DecodeNext(std::string_view text, size_t* i) {
  const char c = text[(*i)++];
  if (c == '+') return ' ';
  if (c == '%' && *i + 1 < text.size()) {
    const int high = HexValue(text[*i]);
    const int low = HexValue(text[*i + 1]);
    if (high >= 0 && low >= 0) {
      *i += 2;
      return static_cast<char>(high * 16 + low);
    }
  }
  return c;
}

/// True when \p text percent-decodes to exactly \p want.
bool DecodedEquals(std::string_view text, std::string_view want) {
  size_t n = 0;
  for (size_t i = 0; i < text.size();) {
    if (n == want.size() || DecodeNext(text, &i) != want[n++]) return false;
  }
  return n == want.size();
}

char ToLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToLower(a[i]) != ToLower(b[i])) return false;
  }
  return true;
}

/// True when \p token appears as a (comma/space-delimited) element of the
/// header value — "keep-alive, Upgrade" contains "keep-alive".
bool ContainsToken(std::string_view value, std::string_view token) {
  size_t start = 0;
  while (start < value.size()) {
    size_t end = value.find(',', start);
    if (end == std::string_view::npos) end = value.size();
    std::string_view piece = value.substr(start, end - start);
    while (!piece.empty() && (piece.front() == ' ' || piece.front() == '\t')) {
      piece.remove_prefix(1);
    }
    while (!piece.empty() && (piece.back() == ' ' || piece.back() == '\t')) {
      piece.remove_suffix(1);
    }
    if (EqualsIgnoreCase(piece, token)) return true;
    if (end == value.size()) break;
    start = end + 1;
  }
  return false;
}

}  // namespace

const char* HttpStatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

CanonTarget ParseCanonTarget(std::string_view method,
                             std::string_view target,
                             std::string* decode_buffer) {
  CanonTarget out;
  const size_t qmark = target.find('?');
  out.path = target.substr(0, qmark);
  if (out.path == "/lookup") {
    out.endpoint = CanonEndpoint::kLookup;
  } else if (out.path == "/link") {
    out.endpoint = CanonEndpoint::kLink;
  } else if (out.path == "/cluster") {
    out.endpoint = CanonEndpoint::kCluster;
  } else if (out.path == "/stats") {
    out.endpoint = CanonEndpoint::kStats;
  } else if (out.path == "/metrics") {
    out.endpoint = CanonEndpoint::kMetrics;
  }
  if (method != "GET") {
    out.error_status = 405;
    out.error = "method not allowed (GET only)";
    return out;
  }
  if (out.endpoint > CanonEndpoint::kCluster) return out;

  // First occurrence of each key, values still encoded.
  const std::string_view query =
      qmark == std::string_view::npos ? std::string_view()
                                      : target.substr(qmark + 1);
  std::string_view kind, surface, id;
  bool has_kind = false, has_id = false;
  size_t start = 0;
  while (start <= query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string_view::npos) end = query.size();
    const std::string_view pair = query.substr(start, end - start);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      const std::string_view key = pair.substr(0, eq);
      const std::string_view value =
          eq == std::string_view::npos ? std::string_view()
                                       : pair.substr(eq + 1);
      if (!has_kind && DecodedEquals(key, "kind")) {
        has_kind = true;
        kind = value;
      } else if (!out.has_surface && DecodedEquals(key, "surface")) {
        out.has_surface = true;
        surface = value;
      } else if (!has_id && DecodedEquals(key, "id")) {
        has_id = true;
        id = value;
      }
    }
    if (end == query.size()) break;
    start = end + 1;
  }

  if (out.has_surface) {
    if (surface.find('%') == std::string_view::npos &&
        surface.find('+') == std::string_view::npos) {
      out.surface = surface;
    } else {
      decode_buffer->resize(surface.size());  // decoding never lengthens
      size_t n = 0;
      for (size_t i = 0; i < surface.size();) {
        (*decode_buffer)[n++] = DecodeNext(surface, &i);
      }
      decode_buffer->resize(n);
      out.surface = *decode_buffer;
    }
  }
  if (has_kind) {
    if (DecodedEquals(kind, "rp")) {
      out.kind = CanonKind::kRp;
    } else if (!DecodedEquals(kind, "np")) {
      out.error_status = 400;
      out.error = "unknown kind (expected np or rp)";
      return out;
    }
  }
  if (out.endpoint == CanonEndpoint::kCluster) {
    bool numeric = has_id && !id.empty();
    for (size_t i = 0; i < id.size();) {
      const char c = DecodeNext(id, &i);
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      const uint64_t digit = static_cast<uint64_t>(c - '0');
      out.cluster_id = out.cluster_id > (UINT64_MAX - digit) / 10
                           ? UINT64_MAX
                           : out.cluster_id * 10 + digit;
    }
    if (!numeric) {
      out.error_status = 400;
      out.error = "missing or non-numeric parameter 'id'";
    }
  } else if (!out.has_surface) {
    out.error_status = 400;
    out.error = "missing required parameter 'surface'";
  }
  return out;
}

std::string_view FindHeaderValue(std::string_view headers,
                                 std::string_view name, bool* found) {
  *found = false;
  size_t start = 0;
  while (start < headers.size()) {
    size_t end = headers.find("\r\n", start);
    if (end == std::string_view::npos) end = headers.size();
    const std::string_view line = headers.substr(start, end - start);
    const size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        EqualsIgnoreCase(line.substr(0, colon), name)) {
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() &&
             (value.front() == ' ' || value.front() == '\t')) {
        value.remove_prefix(1);
      }
      while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
        value.remove_suffix(1);
      }
      *found = true;
      return value;
    }
    if (end == headers.size()) break;
    start = end + 2;
  }
  return {};
}

RequestHead ParseRequestHead(std::string_view head) {
  RequestHead out;
  const size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) return out;
  const std::string_view line = head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return out;
  }
  out.valid = true;
  out.method = line.substr(0, sp1);
  out.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  out.version = line.substr(sp2 + 1);

  const std::string_view headers = head.substr(line_end + 2);
  bool found = false;
  const std::string_view connection =
      FindHeaderValue(headers, "connection", &found);
  if (out.version == "HTTP/1.1") {
    out.keep_alive = !(found && ContainsToken(connection, "close"));
  } else {
    out.keep_alive = found && ContainsToken(connection, "keep-alive");
  }
  const std::string_view length =
      FindHeaderValue(headers, "content-length", &found);
  if (found) {
    // An empty, non-digit or overflowing value leaves the body's extent
    // unknown: the request is malformed, never a zero-length body.
    const char* const end = length.data() + length.size();
    const auto [ptr, ec] =
        std::from_chars(length.data(), end, out.content_length);
    if (ec != std::errc() || ptr != end) out.valid = false;
  }
  return out;
}

}  // namespace jocl

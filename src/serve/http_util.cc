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

std::string UrlDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '+') {
      out.push_back(' ');
    } else if (text[i] == '%' && i + 2 < text.size() &&
               HexValue(text[i + 1]) >= 0 && HexValue(text[i + 2]) >= 0) {
      out.push_back(static_cast<char>(HexValue(text[i + 1]) * 16 +
                                      HexValue(text[i + 2])));
      i += 2;
    } else {
      out.push_back(text[i]);
    }
  }
  return out;
}

bool UrlDecodeInto(std::string_view text, char* scratch, size_t cap,
                   std::string_view* out) {
  // Fast path: nothing to decode — alias the input.
  if (text.find('%') == std::string_view::npos &&
      text.find('+') == std::string_view::npos) {
    *out = text;
    return true;
  }
  size_t n = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if (n >= cap) return false;
    if (text[i] == '+') {
      scratch[n++] = ' ';
    } else if (text[i] == '%' && i + 2 < text.size() &&
               HexValue(text[i + 1]) >= 0 && HexValue(text[i + 2]) >= 0) {
      scratch[n++] = static_cast<char>(HexValue(text[i + 1]) * 16 +
                                       HexValue(text[i + 2]));
      i += 2;
    } else {
      scratch[n++] = text[i];
    }
  }
  *out = std::string_view(scratch, n);
  return true;
}

QueryParams ParseQuery(std::string_view query) {
  QueryParams out;
  size_t start = 0;
  while (start <= query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string_view::npos) end = query.size();
    std::string_view pair = query.substr(start, end - start);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out.params.emplace_back(UrlDecode(pair), "");
      } else {
        out.params.emplace_back(UrlDecode(pair.substr(0, eq)),
                                UrlDecode(pair.substr(eq + 1)));
      }
    }
    if (end == query.size()) break;
    start = end + 1;
  }
  return out;
}

QueryScan FindQueryValue(std::string_view query, std::string_view key,
                         std::string_view* raw_value) {
  size_t start = 0;
  while (start <= query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string_view::npos) end = query.size();
    std::string_view pair = query.substr(start, end - start);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      const std::string_view raw_key =
          eq == std::string_view::npos ? pair : pair.substr(0, eq);
      // An escaped key could decode to `key`; only the allocating parser
      // can tell — bail out so both paths always agree.
      if (raw_key.find('%') != std::string_view::npos ||
          raw_key.find('+') != std::string_view::npos) {
        return QueryScan::kNeedsFallback;
      }
      if (raw_key == key) {
        *raw_value =
            eq == std::string_view::npos ? std::string_view() : pair.substr(eq + 1);
        return QueryScan::kFound;
      }
    }
    if (end == query.size()) break;
    start = end + 1;
  }
  return QueryScan::kMissing;
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

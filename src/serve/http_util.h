#ifndef JOCL_SERVE_HTTP_UTIL_H_
#define JOCL_SERVE_HTTP_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jocl {

/// \brief Reason phrase for the HTTP status codes the serving layer
/// emits.
const char* HttpStatusText(int code);

/// \brief Percent-decodes a query-string component ('+' becomes space;
/// malformed escapes pass through verbatim). Allocating — the fallback
/// (non-cached) request path.
std::string UrlDecode(std::string_view text);

/// \brief Percent-decodes \p text into \p scratch without allocating.
///
/// When \p text contains no escapes the returned view aliases \p text
/// and \p scratch is untouched. Returns false when the decoded form
/// would not fit \p cap bytes — callers fall back to the allocating
/// path. The hot-path half of the pre-rendered response cache.
bool UrlDecodeInto(std::string_view text, char* scratch, size_t cap,
                   std::string_view* out);

/// \brief Decoded `key=value` pairs of a query string (allocating;
/// fallback request path).
struct QueryParams {
  std::vector<std::pair<std::string, std::string>> params;

  const std::string* Find(std::string_view key) const {
    for (const auto& [k, v] : params) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

QueryParams ParseQuery(std::string_view query);

/// \brief Outcome of the zero-allocation query scan.
enum class QueryScan {
  kFound,          ///< key present; *raw_value holds its (undecoded) value
  kMissing,        ///< key absent from the query string
  kNeedsFallback,  ///< a key is percent-encoded; only full decoding can
                   ///< resolve the query — use ParseQuery instead
};

/// \brief Finds the first occurrence of \p key in \p query without
/// allocating. Mirrors ParseQuery's first-match-wins semantics; any
/// percent/plus escape inside a *key* forces kNeedsFallback so the fast
/// and slow paths can never disagree.
QueryScan FindQueryValue(std::string_view query, std::string_view key,
                         std::string_view* raw_value);

/// \brief Parsed head of one HTTP/1.1 request (request line + the
/// headers the server acts on). All views alias the input buffer.
struct RequestHead {
  bool valid = false;        ///< request line and Content-Length well-formed
  std::string_view method;
  std::string_view target;   ///< path + optional ?query
  std::string_view version;  ///< e.g. "HTTP/1.1"
  bool keep_alive = true;    ///< after version + Connection header rules
  size_t content_length = 0; ///< declared body size (0 when absent)
};

/// \brief Parses \p head, the bytes of one request up to and including
/// the blank line. Keep-alive defaults: HTTP/1.1 keeps the connection
/// unless `Connection: close`; HTTP/1.0 (or anything else) closes
/// unless `Connection: keep-alive`.
RequestHead ParseRequestHead(std::string_view head);

/// \brief Case-insensitive header lookup over a raw header block
/// (everything after the request/status line). Returns the trimmed
/// value view, or an empty view with found=false.
std::string_view FindHeaderValue(std::string_view headers,
                                 std::string_view name, bool* found);

}  // namespace jocl

#endif  // JOCL_SERVE_HTTP_UTIL_H_

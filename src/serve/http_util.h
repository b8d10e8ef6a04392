#ifndef JOCL_SERVE_HTTP_UTIL_H_
#define JOCL_SERVE_HTTP_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/canon_store.h"

namespace jocl {

/// \brief Reason phrase for the HTTP status codes the serving layer
/// emits.
const char* HttpStatusText(int code);

/// \brief The endpoints the serving tier answers, in the order of the
/// event loop's per-endpoint latency histograms.
enum class CanonEndpoint : uint32_t {
  kLookup = 0,
  kLink,
  kCluster,
  kStats,
  kMetrics,
  kOther,
};
constexpr size_t kNumCanonEndpoints = 6;

/// \brief One request target, parsed once for every reader of it: the
/// event loop's histogram bucket and scrape/data split, `CanonServer`'s
/// resolve step, `HandleCanonRequest` and the router's shard choice.
///
/// Query keys are percent-decoded before they are compared
/// (`%73urface=` is `surface=`; '+' is a space; malformed escapes stay
/// verbatim) and the first occurrence of a key wins.
struct CanonTarget {
  CanonEndpoint endpoint = CanonEndpoint::kOther;
  std::string_view path;  ///< the target up to '?', undecoded
  CanonKind kind = CanonKind::kNp;  ///< `kind=np|rp`; np when absent
  /// Whether a `surface` key is present, and its decoded value, also
  /// behind a bad `kind` (the router still picks the owner shard). The
  /// value aliases the target when it has no escapes, the caller's
  /// decode buffer otherwise.
  bool has_surface = false;
  std::string_view surface;
  /// `/cluster`: the decoded `id`, saturated at UINT64_MAX.
  uint64_t cluster_id = 0;
  /// 405 (any method but GET) or 400 (a bad `kind`, a missing
  /// `surface`, a missing or non-numeric `id`); 0 otherwise.
  int error_status = 0;
  std::string_view error;  ///< the message of `error_status`

  /// A well-formed `/lookup`, `/link` or `/cluster` request.
  bool is_data() const {
    return error_status == 0 && endpoint <= CanonEndpoint::kCluster;
  }
};

/// \brief Parses \p target (path + optional `?query`) of a \p method
/// request without allocating: an escaped surface decodes into
/// \p decode_buffer, whose capacity is reused from call to call.
CanonTarget ParseCanonTarget(std::string_view method,
                             std::string_view target,
                             std::string* decode_buffer);

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

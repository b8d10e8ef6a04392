#ifndef JOCL_SERVE_HTTP_CLIENT_H_
#define JOCL_SERVE_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace jocl {

/// \brief A parsed HTTP response (status line + body; headers dropped,
/// except the serving tier's generation stamp).
struct HttpResponse {
  int status = 0;
  std::string body;
  /// Value of the `X-Jocl-Generation` response header; -1 when absent
  /// (errors rendered without a published store, non-JOCL servers),
  /// malformed or beyond int64.
  int64_t generation = -1;
};

/// \brief One-shot blocking HTTP/1.1 GET against 127.0.0.1:\p port: a
/// fresh `HttpConnection` for one `Get`, closed on return — one TCP
/// connection per request (the bench's connection-per-request baseline).
/// For repeated requests prefer `HttpConnection`. \p target must start
/// with '/'; percent-encode query values with `UrlEncode` first.
Result<HttpResponse> HttpGet(int port, const std::string& target);

/// \brief A persistent (keep-alive) HTTP/1.1 connection to
/// 127.0.0.1: many sequential GETs over one TCP connection, responses
/// framed by Content-Length. The client side of the event loop's
/// keep-alive path — used by tests and `bench_serve`'s keep-alive
/// sweeps.
///
/// Not thread-safe; use one connection per thread. If the server
/// answers `Connection: close` (or the socket drops) the connection
/// transitions to closed and further `Get`s fail with
/// FailedPrecondition — callers reconnect explicitly.
class HttpConnection {
 public:
  /// Connects to 127.0.0.1:\p port with \p timeout_ms applied to
  /// connect, sends and receives.
  static Result<HttpConnection> Connect(int port, int timeout_ms = 5000);

  HttpConnection() = default;
  ~HttpConnection() { Close(); }

  HttpConnection(HttpConnection&& other) noexcept { *this = std::move(other); }
  HttpConnection& operator=(HttpConnection&& other) noexcept;
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Issues one GET and reads exactly one Content-Length-framed
  /// response, leaving any pipelined surplus buffered for the next
  /// call. On any framing or socket error — a missing, non-numeric or
  /// overflowing Content-Length included — the connection closes and a
  /// descriptive IOError is returned.
  Result<HttpResponse> Get(const std::string& target);

  void Close();
  bool connected() const { return fd_ >= 0; }
  /// Requests completed over this connection so far.
  uint64_t requests_sent() const { return requests_sent_; }

 private:
  int fd_ = -1;
  int port_ = 0;
  std::string buffer_;  ///< received bytes past the last consumed response
  uint64_t requests_sent_ = 0;
};

/// \brief Percent-encodes a query-string value (RFC 3986 unreserved
/// characters pass through).
std::string UrlEncode(std::string_view value);

}  // namespace jocl

#endif  // JOCL_SERVE_HTTP_CLIENT_H_

#include "serve/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <utility>

#include "serve/http_util.h"
#include "util/string_util.h"

namespace jocl {
namespace {

/// Connects a blocking TCP socket to 127.0.0.1:\p port with send and
/// receive timeouts.
Result<int> ConnectLoopback(int port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket() failed: " +
                           std::string(std::strerror(errno)));
  }
  timeval timeout;
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IOError("connect(127.0.0.1:" + std::to_string(port) +
                           ") failed: " + error);
  }
  return fd;
}

Status SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("send() failed: " +
                             std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Parses "HTTP/1.1 <code> ..." out of \p head's first line.
bool ParseStatusLine(std::string_view head, int* status) {
  if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) return false;
  const size_t sp = head.find(' ');
  const size_t line_end = head.find("\r\n");
  if (sp == std::string_view::npos || line_end == std::string_view::npos ||
      sp + 4 > line_end) {
    return false;
  }
  int value = 0;
  for (size_t i = sp + 1; i < sp + 4; ++i) {
    if (head[i] < '0' || head[i] > '9') return false;
    value = value * 10 + (head[i] - '0');
  }
  *status = value;
  return true;
}

/// Parses a whole Content-Length value; false on an empty, non-digit or
/// overflowing value, which leaves the body's extent unknown.
bool ParseContentLength(std::string_view text, size_t* length) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *length);
  return ec == std::errc() && ptr == end;
}

/// Parses the serving tier's `X-Jocl-Generation` header out of a header
/// block; -1 when absent, malformed, negative or beyond int64.
int64_t ParseGenerationHeader(std::string_view headers) {
  bool found = false;
  const std::string_view text =
      FindHeaderValue(headers, "x-jocl-generation", &found);
  int64_t value = -1;
  return found && ParseInt64(text, &value) && value >= 0 ? value : -1;
}

}  // namespace

std::string UrlEncode(std::string_view value) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    const bool unreserved =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' ||
        c == '~';
    if (unreserved) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(hex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  return out;
}

Result<HttpResponse> HttpGet(int port, const std::string& target) {
  Result<HttpConnection> connected = HttpConnection::Connect(port);
  if (!connected.ok()) return connected.status();
  return connected.ValueOrDie().Get(target);
}

HttpConnection& HttpConnection::operator=(HttpConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    buffer_ = std::move(other.buffer_);
    requests_sent_ = other.requests_sent_;
    other.fd_ = -1;
    other.buffer_.clear();
    other.requests_sent_ = 0;
  }
  return *this;
}

Result<HttpConnection> HttpConnection::Connect(int port, int timeout_ms) {
  Result<int> connected = ConnectLoopback(port, timeout_ms);
  if (!connected.ok()) return connected.status();
  HttpConnection conn;
  conn.fd_ = connected.ValueOrDie();
  conn.port_ = port;
  return conn;
}

void HttpConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Result<HttpResponse> HttpConnection::Get(const std::string& target) {
  if (fd_ < 0) {
    return Status::FailedPrecondition(
        "HttpConnection is closed (server sent Connection: close or a "
        "previous request failed)");
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: keep-alive\r\n\r\n";
  Status sent = SendAll(fd_, request);
  if (!sent.ok()) {
    Close();
    return sent;
  }

  auto fill = [&]() -> Status {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) return Status::OK();
      const std::string error = std::strerror(errno);
      Close();
      return Status::IOError(
          (errno == EAGAIN || errno == EWOULDBLOCK)
              ? "recv() timed out waiting for response on 127.0.0.1:" +
                    std::to_string(port_)
              : "recv() failed: " + error);
    }
    if (n == 0) {
      Close();
      return Status::IOError(
          "server closed the connection mid-response (127.0.0.1:" +
          std::to_string(port_) + ")");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    return Status::OK();
  };

  // Head: everything through the blank line.
  size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    JOCL_RETURN_NOT_OK(fill());
  }
  const std::string_view head(buffer_.data(), head_end);
  HttpResponse response;
  if (!ParseStatusLine(head, &response.status)) {
    Close();
    return Status::IOError("malformed HTTP status line");
  }
  const size_t line_end = head.find("\r\n");
  const std::string_view headers = head.substr(line_end + 2);
  bool found = false;
  const std::string_view length_text =
      FindHeaderValue(headers, "content-length", &found);
  size_t content_length = 0;
  if (!found || !ParseContentLength(length_text, &content_length)) {
    Close();
    return Status::IOError("HTTP response missing a valid Content-Length");
  }
  const std::string_view connection =
      FindHeaderValue(headers, "connection", &found);
  const bool server_closes = found && connection == "close";
  response.generation = ParseGenerationHeader(headers);

  // Body: exactly Content-Length bytes; any surplus stays buffered for
  // the next response on this connection.
  const size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + content_length) {
    JOCL_RETURN_NOT_OK(fill());
  }
  response.body = buffer_.substr(body_start, content_length);
  buffer_.erase(0, body_start + content_length);
  ++requests_sent_;
  if (server_closes) Close();
  return response;
}

}  // namespace jocl

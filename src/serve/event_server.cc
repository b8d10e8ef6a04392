#include "serve/event_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "serve/json.h"

namespace jocl {
namespace {

/// Connection-header tails the event loop appends after a pre-rendered
/// (or rendered) head; the blank line that ends the head rides along.
constexpr std::string_view kKeepAliveTail = "Connection: keep-alive\r\n\r\n";
constexpr std::string_view kCloseTail = "Connection: close\r\n\r\n";
constexpr std::string_view kJsonContentType = "application/json";

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// sendmsg == writev + MSG_NOSIGNAL: one gather write of the
/// precomputed pieces without risking SIGPIPE on a dead peer.
ssize_t GatherWrite(int fd, iovec* iov, int iovcnt) {
  msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

}  // namespace

std::string ErrorBody(std::string_view message) {
  std::string out = "{\"error\":";
  AppendJsonString(&out, message);
  out.push_back('}');
  return out;
}

EventHttpServer::EventHttpServer(ServeOptions options)
    : options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.idle_timeout_ms <= 0) options_.idle_timeout_ms = 5000;
  requests_ = registry_.AddCounter("jocl_requests_total", "",
                                   "Data-path requests handled");
  scrapes_ = registry_.AddCounter(
      "jocl_scrapes_total", "",
      "/stats and /metrics requests, counted apart from the data path");
  ok_ = registry_.AddCounter("jocl_responses_total", "code=\"200\"",
                             "Responses by status code class");
  not_found_ = registry_.AddCounter("jocl_responses_total", "code=\"404\"",
                                    "Responses by status code class");
  bad_request_ = registry_.AddCounter("jocl_responses_total", "code=\"4xx\"",
                                      "Responses by status code class");
  unavailable_ = registry_.AddCounter("jocl_responses_total", "code=\"503\"",
                                      "Responses by status code class");
  connections_accepted_ = registry_.AddCounter(
      "jocl_connections_accepted_total", "", "accept() successes");
  connections_reused_ = registry_.AddCounter(
      "jocl_connections_reused_total", "",
      "Requests served on a connection past its first request");
  connections_timed_out_ = registry_.AddCounter(
      "jocl_connections_timed_out_total", "",
      "Connections closed by the idle/slow-loris sweep");
  writev_bytes_ = registry_.AddCounter("jocl_writev_bytes_total", "",
                                       "Response bytes written");
  static constexpr std::string_view kEndpointLabels[kNumCanonEndpoints] = {
      "endpoint=\"/lookup\"",  "endpoint=\"/link\"",
      "endpoint=\"/cluster\"", "endpoint=\"/stats\"",
      "endpoint=\"/metrics\"", "endpoint=\"other\"",
  };
  for (size_t e = 0; e < kNumCanonEndpoints; ++e) {
    latency_[e] = registry_.AddHistogram(
        "jocl_request_latency_seconds", kEndpointLabels[e],
        "Server-side request latency, request parse to last byte queued");
  }
}

EventHttpServer::~EventHttpServer() { Stop(); }

Status EventHttpServer::OpenListener(int* out_fd) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError("socket() failed: " +
                           std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // One listener per event thread on the same port: the kernel spreads
  // incoming connections across them, so accepted fds never cross
  // threads and the hot path runs lock-free.
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IOError("setsockopt(SO_REUSEPORT) failed: " + error);
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IOError("bind(127.0.0.1:" + std::to_string(port_) +
                           ") failed: " + error);
  }
  if (port_ == 0) {
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) <
        0) {
      const std::string error = std::strerror(errno);
      ::close(fd);
      return Status::IOError("getsockname() failed: " + error);
    }
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(fd, options_.backlog) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IOError("listen(127.0.0.1:" + std::to_string(port_) +
                           ") failed: " + error);
  }
  *out_fd = fd;
  return Status::OK();
}

Status EventHttpServer::Start() {
  if (!event_threads_.empty()) {
    return Status::FailedPrecondition("server already started");
  }
  port_ = options_.port;
  auto fail = [&](Status status) {
    for (auto& et : event_threads_) CloseFds(et.get());
    event_threads_.clear();
    port_ = 0;
    return status;
  };
  for (size_t w = 0; w < options_.num_workers; ++w) {
    auto et = std::make_unique<EventThread>();
    event_threads_.push_back(std::move(et));
    EventThread* slot = event_threads_.back().get();
    Status status = OpenListener(&slot->listen_fd);
    if (!status.ok()) return fail(std::move(status));
    slot->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (slot->epoll_fd < 0) {
      return fail(Status::IOError("epoll_create1() failed: " +
                                  std::string(std::strerror(errno))));
    }
    slot->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (slot->wake_fd < 0) {
      return fail(Status::IOError("eventfd() failed: " +
                                  std::string(std::strerror(errno))));
    }
    epoll_event event;
    std::memset(&event, 0, sizeof(event));
    event.events = EPOLLIN;
    event.data.fd = slot->listen_fd;
    if (::epoll_ctl(slot->epoll_fd, EPOLL_CTL_ADD, slot->listen_fd, &event) <
        0) {
      return fail(Status::IOError("epoll_ctl(listener) failed: " +
                                  std::string(std::strerror(errno))));
    }
    event.data.fd = slot->wake_fd;
    if (::epoll_ctl(slot->epoll_fd, EPOLL_CTL_ADD, slot->wake_fd, &event) <
        0) {
      return fail(Status::IOError("epoll_ctl(eventfd) failed: " +
                                  std::string(std::strerror(errno))));
    }
    // Built before the thread exists, so the thread-start happens-before
    // edge hands the context over without synchronization.
    slot->context = MakeThreadContext();
  }
  running_.store(true);
  for (auto& et : event_threads_) {
    et->thread = std::thread(&EventHttpServer::EventLoop, this, et.get());
  }
  return Status::OK();
}

void EventHttpServer::Stop() {
  if (event_threads_.empty()) return;
  running_.store(false);
  for (auto& et : event_threads_) {
    const uint64_t one = 1;
    // A failed wake write is unrecoverable but harmless: the loop also
    // polls `running_` on its timeout tick.
    (void)!::write(et->wake_fd, &one, sizeof(one));
  }
  // The loops only exit; their fds close here, after join(), so the wake
  // writes above can never land on a descriptor number the kernel has
  // already handed to someone else.
  for (auto& et : event_threads_) {
    if (et->thread.joinable()) et->thread.join();
    CloseFds(et.get());
  }
  event_threads_.clear();
  port_ = 0;
}

void EventHttpServer::CloseFds(EventThread* et) {
  for (auto& [fd, conn] : et->conns) ::close(fd);
  et->conns.clear();
  for (int* fd : {&et->listen_fd, &et->wake_fd, &et->epoll_fd}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

ServeCounters EventHttpServer::counters() const {
  ServeCounters counters;
  counters.requests = requests_->Value();
  counters.scrapes = scrapes_->Value();
  counters.ok = ok_->Value();
  counters.not_found = not_found_->Value();
  counters.bad_request = bad_request_->Value();
  counters.unavailable = unavailable_->Value();
  counters.connections_accepted = connections_accepted_->Value();
  counters.connections_reused = connections_reused_->Value();
  counters.connections_timed_out = connections_timed_out_->Value();
  counters.writev_bytes = writev_bytes_->Value();
  return counters;
}

void EventHttpServer::CountStatus(int http_status) {
  switch (http_status) {
    case 200: ok_->Add(); break;
    case 404: not_found_->Add(); break;
    case 503: unavailable_->Add(); break;
    default: bad_request_->Add(); break;
  }
}

void EventHttpServer::EventLoop(EventThread* et) {
  // Timeout enforcement only needs ~idle/4 resolution; the tick also
  // doubles as the running_ fallback poll.
  const int tick_ms =
      std::max(10, std::min(250, options_.idle_timeout_ms / 4));
  int64_t last_sweep = NowMillis();
  epoll_event events[64];
  while (running_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(et->epoll_fd, events, 64, tick_ms);
    if (!running_.load(std::memory_order_relaxed)) break;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == et->listen_fd) {
        AcceptReady(et);
        continue;
      }
      if (fd == et->wake_fd) {
        uint64_t drained = 0;
        (void)!::read(et->wake_fd, &drained, sizeof(drained));
        continue;
      }
      auto it = et->conns.find(fd);
      if (it == et->conns.end()) continue;
      const uint32_t mask = events[i].events;
      if (mask & (EPOLLHUP | EPOLLERR)) {
        CloseConn(et, fd);
        continue;
      }
      if (mask & EPOLLOUT) {
        FlushOut(et, fd, &it->second);
        it = et->conns.find(fd);  // FlushOut may close on drain/error
        if (it == et->conns.end()) continue;
      }
      if (mask & EPOLLIN) Readable(et, fd, &it->second);
    }
    const int64_t now = NowMillis();
    if (now - last_sweep >= tick_ms) {
      SweepTimeouts(et, now);
      last_sweep = now;
    }
  }
}

void EventHttpServer::AcceptReady(EventThread* et) {
  for (;;) {
    const int fd = ::accept4(et->listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // EAGAIN (drained) or a transient kernel error
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event event;
    std::memset(&event, 0, sizeof(event));
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(et->epoll_fd, EPOLL_CTL_ADD, fd, &event) < 0) {
      ::close(fd);
      continue;
    }
    Conn& conn = et->conns[fd];
    conn.in.reserve(1024);  // one allocation per connection, amortized
                            // over its keep-alive lifetime
    conn.last_activity_ms = NowMillis();
    connections_accepted_->Add();
  }
}

void EventHttpServer::Readable(EventThread* et, int fd, Conn* conn) {
  bool peer_closed = false;
  for (;;) {
    char buffer[16384];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->in.append(buffer, static_cast<size_t>(n));
      conn->last_activity_ms = NowMillis();
      if (static_cast<size_t>(n) < sizeof(buffer)) break;  // drained
    } else if (n == 0) {
      peer_closed = true;
      break;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno == EINTR) {
      continue;
    } else {
      CloseConn(et, fd);
      return;
    }
  }
  if (!ProcessBuffered(et, fd, conn)) return;  // connection closed
  if (peer_closed) {
    if (conn->out.empty()) {
      CloseConn(et, fd);
    } else {
      conn->close_after_drain = true;  // finish writing queued responses
    }
  }
}

bool EventHttpServer::ProcessBuffered(EventThread* et, int fd, Conn* conn) {
  for (;;) {
    if (conn->close_after_drain) return true;  // no more requests
    const size_t head_end = conn->in.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (conn->in.size() > options_.max_request_bytes) {
        requests_->Add();
        CountStatus(431);
        SendRendered(et, fd, conn, 431, ErrorBody("request too large"), {},
                     kJsonContentType, /*keep_alive=*/false);
        if (conn->broken || conn->out.empty()) {
          CloseConn(et, fd);
          return false;
        }
        conn->close_after_drain = true;
      }
      return true;  // incomplete head: wait for more bytes
    }
    if (head_end + 4 > options_.max_request_bytes) {
      requests_->Add();
      CountStatus(431);
      SendRendered(et, fd, conn, 431, ErrorBody("request too large"), {},
                   kJsonContentType, /*keep_alive=*/false);
      if (conn->broken || conn->out.empty()) {
        CloseConn(et, fd);
        return false;
      }
      conn->close_after_drain = true;
      return true;
    }
    const std::string_view head(conn->in.data(), head_end + 4);
    const bool keep = ServeRequest(et, fd, conn, head);
    conn->in.erase(0, head_end + 4);  // keeps capacity: no allocation
    if (conn->broken) {
      CloseConn(et, fd);
      return false;
    }
    if (!keep) {
      if (conn->out.empty()) {
        CloseConn(et, fd);
        return false;
      }
      conn->close_after_drain = true;
      return true;
    }
  }
}

bool EventHttpServer::ServeRequest(EventThread* et, int fd, Conn* conn,
                                   std::string_view head) {
  // Latency is measured request-parse to last-byte-queued; the two
  // clock reads and the histogram add are the only cost the `metrics`
  // toggle gates (bench_serve holds the gap to >= 0.95x).
  const bool timed = options_.metrics;
  const uint64_t start_ns = timed ? MonotonicNanos() : 0;
  if (conn->requests_served > 0) {
    connections_reused_->Add();
  }
  ++conn->requests_served;

  const RequestHead request = ParseRequestHead(head);
  if (!request.valid) {
    requests_->Add();
    CountStatus(400);
    SendRendered(et, fd, conn, 400, ErrorBody("malformed request head"), {},
                 kJsonContentType, /*keep_alive=*/false);
    return false;
  }
  // Scrapes are counted apart from data-path requests so monitoring
  // traffic never skews QPS-facing numbers.
  const CanonTarget target =
      ParseCanonTarget(request.method, request.target, &et->decode_buffer);
  const CanonEndpoint endpoint = target.endpoint;
  if (endpoint == CanonEndpoint::kStats ||
      endpoint == CanonEndpoint::kMetrics) {
    scrapes_->Add();
  } else {
    requests_->Add();
  }
  if (request.content_length > 0) {
    CountStatus(400);
    SendRendered(et, fd, conn, 400,
                 ErrorBody("request bodies are not supported"), {},
                 kJsonContentType, /*keep_alive=*/false);
    return false;
  }

  HttpReply reply;
  HandleRequest(request, target, et->context.get(), &reply);
  if (!reply.cached_header.empty()) {
    CountStatus(200);
    SendCached(et, fd, conn, reply.cached_header, reply.cached_body,
               request.keep_alive);
  } else {
    CountStatus(reply.status);
    SendRendered(et, fd, conn, reply.status, reply.body, reply.extra_headers,
                 reply.content_type.empty() ? kJsonContentType
                                            : reply.content_type,
                 request.keep_alive);
  }
  if (timed) {
    latency_[static_cast<size_t>(endpoint)]->Record(MonotonicNanos() -
                                                    start_ns);
  }
  return request.keep_alive;
}

void EventHttpServer::SendCached(EventThread* et, int fd, Conn* conn,
                                 std::string_view header,
                                 std::string_view body, bool keep_alive) {
  const std::string_view tail = keep_alive ? kKeepAliveTail : kCloseTail;
  iovec iov[3];
  iov[0].iov_base = const_cast<char*>(header.data());
  iov[0].iov_len = header.size();
  iov[1].iov_base = const_cast<char*>(tail.data());
  iov[1].iov_len = tail.size();
  iov[2].iov_base = const_cast<char*>(body.data());
  iov[2].iov_len = body.size();
  QueueOrSend(et, fd, conn, iov, 3);
}

void EventHttpServer::SendRendered(EventHttpServer::EventThread* et, int fd,
                                   Conn* conn, int http_status,
                                   std::string_view body,
                                   std::string_view extra_headers,
                                   std::string_view content_type,
                                   bool keep_alive) {
  std::string response = "HTTP/1.1 " + std::to_string(http_status) + " " +
                         HttpStatusText(http_status) + "\r\nContent-Type: ";
  response.append(content_type);
  response.append("\r\nContent-Length: " + std::to_string(body.size()) +
                  "\r\n");
  response.append(extra_headers);
  response.append(keep_alive ? kKeepAliveTail : kCloseTail);
  response.append(body);
  iovec iov[1];
  iov[0].iov_base = const_cast<char*>(response.data());
  iov[0].iov_len = response.size();
  QueueOrSend(et, fd, conn, iov, 1);
}

void EventHttpServer::QueueOrSend(EventThread* et, int fd, Conn* conn,
                                  iovec* iov, int iovcnt) {
  size_t total = 0;
  for (int i = 0; i < iovcnt; ++i) total += iov[i].iov_len;
  size_t written = 0;
  if (conn->out.empty()) {
    // Hot path: the whole response usually fits the socket buffer in
    // one gather write and nothing is copied or queued.
    for (;;) {
      const ssize_t n = GatherWrite(fd, iov, iovcnt);
      if (n >= 0) {
        writev_bytes_->Add(static_cast<uint64_t>(n));
        written = static_cast<size_t>(n);
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        written = 0;
        break;
      }
      conn->broken = true;
      return;
    }
    if (written == total) return;
  }
  // Slow client: queue the unsent remainder and let EPOLLOUT drain it.
  size_t skip = written;
  for (int i = 0; i < iovcnt; ++i) {
    if (skip >= iov[i].iov_len) {
      skip -= iov[i].iov_len;
      continue;
    }
    conn->out.append(static_cast<const char*>(iov[i].iov_base) + skip,
                     iov[i].iov_len - skip);
    skip = 0;
  }
  epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = EPOLLIN | EPOLLOUT;
  event.data.fd = fd;
  ::epoll_ctl(et->epoll_fd, EPOLL_CTL_MOD, fd, &event);
  conn->last_activity_ms = NowMillis();
}

void EventHttpServer::FlushOut(EventThread* et, int fd, Conn* conn) {
  while (!conn->out.empty()) {
    iovec iov;
    iov.iov_base = const_cast<char*>(conn->out.data());
    iov.iov_len = conn->out.size();
    const ssize_t n = GatherWrite(fd, &iov, 1);
    if (n > 0) {
      writev_bytes_->Add(static_cast<uint64_t>(n));
      conn->out.erase(0, static_cast<size_t>(n));
      conn->last_activity_ms = NowMillis();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConn(et, fd);
    return;
  }
  epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = EPOLLIN;
  event.data.fd = fd;
  ::epoll_ctl(et->epoll_fd, EPOLL_CTL_MOD, fd, &event);
  if (conn->close_after_drain) CloseConn(et, fd);
}

void EventHttpServer::CloseConn(EventThread* et, int fd) {
  ::epoll_ctl(et->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  et->conns.erase(fd);
}

void EventHttpServer::SweepTimeouts(EventThread* et, int64_t now_ms) {
  std::vector<int> expired;
  for (const auto& [fd, conn] : et->conns) {
    if (now_ms - conn.last_activity_ms >= options_.idle_timeout_ms) {
      expired.push_back(fd);
    }
  }
  for (const int fd : expired) {
    Conn& conn = et->conns[fd];
    connections_timed_out_->Add();
    if (!conn.in.empty()) {
      // Slow-loris: a request head has been trickling in past the
      // deadline. Best-effort 408, then drop the connection.
      requests_->Add();
      CountStatus(408);
      const std::string body = ErrorBody("request timeout");
      std::string response =
          "HTTP/1.1 408 Request Timeout\r\n"
          "Content-Type: application/json\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n";
      response.append(kCloseTail);
      response.append(body);
      iovec iov;
      iov.iov_base = const_cast<char*>(response.data());
      iov.iov_len = response.size();
      const ssize_t n = GatherWrite(fd, &iov, 1);
      if (n > 0) {
        writev_bytes_->Add(static_cast<uint64_t>(n));
      }
    }
    CloseConn(et, fd);
  }
}

}  // namespace jocl

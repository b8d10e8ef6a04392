#ifndef JOCL_SERVE_EVENT_SERVER_H_
#define JOCL_SERVE_EVENT_SERVER_H_

#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "serve/http_util.h"
#include "util/result.h"

namespace jocl {

/// \brief Execution knobs of the serving front end.
struct ServeOptions {
  /// TCP port to bind on 127.0.0.1; 0 = any free (ephemeral) port, read
  /// back via `EventHttpServer::port()`.
  int port = 0;
  /// Event-loop threads. Each runs its own epoll instance over its own
  /// `SO_REUSEPORT` listener, so accepted connections are kernel-
  /// distributed and never migrate between threads (no cross-thread
  /// locks on the hot path). Kept under its historical name — before
  /// the event loop these were pool workers.
  size_t num_workers = 4;
  /// Listen backlog (per listener).
  int backlog = 64;
  /// A connection is closed when this long passes without progress —
  /// both the keep-alive idle case and the slow-loris partial-request
  /// case (the latter is answered with 408 best-effort first).
  int idle_timeout_ms = 5000;
  /// Requests whose head exceeds this are rejected with 431 and the
  /// connection is closed.
  size_t max_request_bytes = 16 * 1024;
  /// Pre-render hot-endpoint responses on every Publish (the
  /// parse → resolve → writev path). Disable to serve through
  /// the allocating renderer only — bench_serve measures the gap.
  bool prerender = true;
  /// Record per-endpoint request-latency histograms (request parse to
  /// last byte queued). Counters always run (they replace the old
  /// atomics at the same cost); this gates only the two clock reads and
  /// the histogram add per request — bench_serve measures the gap and
  /// gates it at >= 0.95x.
  bool metrics = true;
};

/// \brief Monotonic request counters (one snapshot, not a live view).
struct ServeCounters {
  uint64_t requests = 0;     ///< data-path requests handled (not
                             ///< connections; excludes scrapes)
  uint64_t scrapes = 0;      ///< /stats + /metrics requests, counted
                             ///< apart so scraping never skews QPS math
  uint64_t ok = 0;           ///< 200 responses
  uint64_t not_found = 0;    ///< 404 responses
  uint64_t bad_request = 0;  ///< 400/405/408/431 responses
  uint64_t unavailable = 0;  ///< 503 (no store published / shard down)
  uint64_t publishes = 0;    ///< store swaps (CanonServer)
  // Event-loop counters (PR 7).
  uint64_t connections_accepted = 0;   ///< accept() successes
  uint64_t connections_reused = 0;     ///< requests served on a connection
                                       ///< past its first request
  uint64_t connections_timed_out = 0;  ///< idle/slow closes by the loop
  uint64_t cache_hits = 0;             ///< answered from the arena
  uint64_t cache_misses = 0;           ///< rendered by the fallback path
  uint64_t writev_bytes = 0;           ///< response bytes written
};

/// The uniform JSON error body: `{"error":"<message>"}`.
std::string ErrorBody(std::string_view message);

/// \brief One response from a request handler, in one of two shapes.
///
/// Rendered (the default): `status` + `body`, written with a freshly
/// built head; `extra_headers` carries additional `Key: value\r\n`
/// lines (e.g. `X-Jocl-Generation`). Cached: when `cached_header` is
/// non-empty the reply is pre-rendered header + body views written
/// zero-copy (the PR 7 writev path); `pin` keeps whatever arena they
/// point into alive until the write is queued, and `status` must stay
/// 200 (cached entries are only ever successful responses).
struct HttpReply {
  int status = 200;
  std::string body;
  std::string extra_headers;
  /// Content-Type of a rendered reply; empty = application/json (the
  /// default everywhere but `/metrics`, which is Prometheus text).
  std::string content_type;
  std::string_view cached_header;
  std::string_view cached_body;
  std::shared_ptr<const void> pin;
};

/// \brief The dependency-free event-driven HTTP/1.1 front end, request
/// handling left to subclasses (`CanonServer` serves a store,
/// `CanonRouter` fans out to shard backends).
///
/// `num_workers` event threads each own an epoll instance and an
/// `SO_REUSEPORT` listener on 127.0.0.1; a connection lives on the
/// thread that accepted it for its whole life. Connections are
/// keep-alive by default (HTTP/1.1 semantics), requests may be
/// pipelined, and per-connection state machines enforce idle /
/// slow-client timeouts and the request-size cap off the epoll timer.
///
/// Subclasses override `HandleRequest` (called on the event thread that
/// owns the connection) and may override `MakeThreadContext` to hang
/// per-thread state — e.g. backend connection pools — off each event
/// thread without any locking. **Subclass destructors must call
/// `Stop()` themselves**: the base destructor also stops, but by then
/// the derived object is gone and an event thread still dispatching
/// into the derived `HandleRequest` would be undefined behavior.
class EventHttpServer {
 public:
  explicit EventHttpServer(ServeOptions options = {});
  virtual ~EventHttpServer();

  EventHttpServer(const EventHttpServer&) = delete;
  EventHttpServer& operator=(const EventHttpServer&) = delete;

  /// Binds the listeners, spawns the event threads. Fails with a
  /// descriptive Status when the port is taken or epoll setup fails.
  Status Start();

  /// Closes every connection and listener, joins all event threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (after a successful Start).
  int port() const { return port_; }

  virtual ServeCounters counters() const;

 protected:
  /// Per-event-thread state owned by the subclass; created once per
  /// event thread at Start and only ever touched by that thread.
  struct ThreadContext {
    virtual ~ThreadContext() = default;
  };

  virtual std::unique_ptr<ThreadContext> MakeThreadContext() {
    return nullptr;
  }

  /// Answers one parsed request. Runs on the owning event thread;
  /// \p target is the request target parsed once by the loop (its
  /// decoded surface lives until this returns), \p context that
  /// thread's `MakeThreadContext()` result (null by default).
  /// Protocol-level errors (malformed head, oversize, 408) never reach
  /// this.
  virtual void HandleRequest(const RequestHead& request,
                             const CanonTarget& target,
                             ThreadContext* context, HttpReply* reply) = 0;

  const ServeOptions& options() const { return options_; }

  /// The server-scoped registry `/metrics` renders. Subclasses register
  /// their own families here at construction time.
  MetricsRegistry& metrics_registry() { return registry_; }
  const MetricsRegistry& metrics_registry() const { return registry_; }

 private:
  /// Per-connection state machine.
  struct Conn {
    std::string in;        ///< buffered unparsed request bytes
    std::string out;       ///< response bytes awaiting POLLOUT
    int64_t last_activity_ms = 0;
    uint64_t requests_served = 0;
    bool close_after_drain = false;  ///< close once `out` empties
    bool broken = false;             ///< fatal write error; owner closes
  };

  /// One event thread: epoll instance + SO_REUSEPORT listener + its
  /// connections. Only its own thread touches `conns` and `context`.
  struct EventThread {
    int epoll_fd = -1;
    int listen_fd = -1;
    int wake_fd = -1;  ///< eventfd; Stop() writes to break epoll_wait
    std::unordered_map<int, Conn> conns;
    std::unique_ptr<ThreadContext> context;
    /// Escaped surfaces decode here (`ParseCanonTarget`); its capacity
    /// is kept from request to request.
    std::string decode_buffer;
    std::thread thread;
  };

  Status OpenListener(int* out_fd);
  /// Closes a thread's connections and its listen, wake and epoll fds.
  /// Only called while the thread is not running (before start or after
  /// join).
  static void CloseFds(EventThread* et);
  void EventLoop(EventThread* et);
  void AcceptReady(EventThread* et);
  void Readable(EventThread* et, int fd, Conn* conn);
  /// Drains complete pipelined requests out of `conn->in`. Returns
  /// false when it closed the connection.
  bool ProcessBuffered(EventThread* et, int fd, Conn* conn);
  /// Answers one parsed request; returns false when the connection must
  /// close (protocol error or Connection: close).
  bool ServeRequest(EventThread* et, int fd, Conn* conn,
                    std::string_view head);
  void SendCached(EventThread* et, int fd, Conn* conn,
                  std::string_view header, std::string_view body,
                  bool keep_alive);
  void SendRendered(EventThread* et, int fd, Conn* conn, int http_status,
                    std::string_view body, std::string_view extra_headers,
                    std::string_view content_type, bool keep_alive);
  /// One gather write of `iov`; the unsent remainder is queued on
  /// `conn->out` with EPOLLOUT armed. Sets `conn->broken` on error.
  void QueueOrSend(EventThread* et, int fd, Conn* conn, iovec* iov,
                   int iovcnt);
  void FlushOut(EventThread* et, int fd, Conn* conn);
  void CloseConn(EventThread* et, int fd);
  void SweepTimeouts(EventThread* et, int64_t now_ms);
  void CountStatus(int http_status);

  ServeOptions options_;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<EventThread>> event_threads_;

  // Request counters live on the server-scoped registry (the single
  // source `/metrics`, `/stats` and counters() all read); the handles
  // are registered once in the constructor and recording through them
  // is lock-free and allocation-free on the event threads.
  MetricsRegistry registry_;
  Counter* requests_ = nullptr;
  Counter* scrapes_ = nullptr;
  Counter* ok_ = nullptr;
  Counter* not_found_ = nullptr;
  Counter* bad_request_ = nullptr;
  Counter* unavailable_ = nullptr;
  Counter* connections_accepted_ = nullptr;
  Counter* connections_reused_ = nullptr;
  Counter* connections_timed_out_ = nullptr;
  Counter* writev_bytes_ = nullptr;
  Histogram* latency_[kNumCanonEndpoints] = {nullptr};
};

}  // namespace jocl

#endif  // JOCL_SERVE_EVENT_SERVER_H_

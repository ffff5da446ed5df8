#include "service/async_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "service/wire.h"

namespace hdidx::service {

namespace {

/// Final-flush grace at shutdown: per connection, at most this many
/// POLLOUT waits of kFlushPollMs each before the fd is closed anyway.
constexpr int kFlushPollRounds = 10;
constexpr int kFlushPollMs = 20;

/// Per-connection outbound high watermark: above this many buffered bytes
/// the loop stops reading the connection until its buffer fully drains.
constexpr size_t kWriteBufferLimit = size_t{4} << 20;

/// How long the listen socket stays out of the interest set after accept
/// ran out of descriptors or buffers.
constexpr std::chrono::milliseconds kAcceptBackoff{20};

void WakeEventFd(int fd) {
  const uint64_t one = 1;
  // An eventfd write only fails if the counter would overflow, in which
  // case the reader is already signaled — safe to ignore.
  (void)!::write(fd, &one, sizeof(one));
}

void DrainEventFd(int fd) {
  uint64_t value = 0;
  while (::read(fd, &value, sizeof(value)) > 0) {
  }
}

/// One accepted socket. The event loop is the only thread that reads it
/// and the only thread that writes the fd; shard workers hand response
/// bytes over through the mutex-guarded outbound buffer and an eventfd
/// nudge.
struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}

  const int fd;

  common::Mutex mu;
  /// Bytes awaiting write; [out_offset, size) is the undrained suffix.
  std::string outbound HDIDX_GUARDED_BY(mu);
  size_t out_offset HDIDX_GUARDED_BY(mu) = 0;
  bool closed HDIDX_GUARDED_BY(mu) = false;
  bool close_after_flush HDIDX_GUARDED_BY(mu) = false;

  /// Writes the undrained outbound bytes until they are gone or the socket
  /// is full; a full socket is waited on (POLLOUT, kFlushPollMs each) up to
  /// `poll_rounds` times. False iff the peer vanished mid-write. Every
  /// socket write goes through here: MSG_NOSIGNAL turns a vanished peer
  /// into an EPIPE return instead of a process-killing SIGPIPE.
  bool WriteOutbound(int poll_rounds) HDIDX_REQUIRES(mu) {
    while (out_offset < outbound.size()) {
      const ssize_t n = ::send(fd, outbound.data() + out_offset,
                               outbound.size() - out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        out_offset += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (poll_rounds-- <= 0) return true;
        pollfd pfd{fd, POLLOUT, 0};
        ::poll(&pfd, 1, kFlushPollMs);
        continue;
      }
      return false;
    }
    return true;
  }

  /// Read/framing state, touched only by the event loop.
  std::string inbound HDIDX_UNGUARDED;
  /// Epoll interest currently registered — event loop only.
  uint32_t armed_events HDIDX_UNGUARDED = 0;
  bool reading_paused HDIDX_UNGUARDED = false;
};

/// A predict frame waiting for its shard worker, still encoded: the event
/// loop only peeks the routing key (dataset → shard), so payload decode
/// cost lands on the worker, not the shared loop. The payload is copied out
/// of the connection's inbound buffer, which the loop compacts as soon as
/// the frame is consumed.
struct QueueItem {
  std::shared_ptr<Connection> conn;
  wire::FrameHeader header;
  std::string payload;
};

/// Bounded admission queue in front of one shard worker. TryPush refuses
/// (and counts a shed) at capacity; Pause/WaitIdle quiesce the worker for
/// registry loads and the deterministic backpressure tests.
class ShardQueue {
 public:
  explicit ShardQueue(size_t capacity) : capacity_(capacity) {}

  /// False (shed counted) when the queue is at capacity or draining.
  bool TryPush(QueueItem item) {
    common::MutexLock lock(&mu_);
    if (draining_ || items_.size() >= capacity_) {
      ++shed_;
      return false;
    }
    items_.push_back(std::move(item));
    if (items_.size() > peak_depth_) peak_depth_ = items_.size();
    cv_.NotifyAll();
    return true;
  }

  /// Blocks for the next item; false once Shutdown() was called. The
  /// caller must FinishItem() after serving each popped item.
  bool Pop(QueueItem* out) {
    common::MutexLock lock(&mu_);
    while (shutdown_ ? false : (paused_ || items_.empty())) {
      cv_.Wait(mu_);
    }
    if (shutdown_) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    ++active_;
    return true;
  }

  void FinishItem() {
    common::MutexLock lock(&mu_);
    --active_;
    cv_.NotifyAll();
  }

  void Shutdown() {
    common::MutexLock lock(&mu_);
    shutdown_ = true;
    cv_.NotifyAll();
  }

  void Pause() {
    common::MutexLock lock(&mu_);
    paused_ = true;
  }

  void Resume() {
    common::MutexLock lock(&mu_);
    paused_ = false;
    cv_.NotifyAll();
  }

  /// After this every TryPush sheds — the queue admits no new work, so a
  /// subsequent WaitIdle() has a finite frontier even under sustained
  /// arrivals. Used by the shutdown path; never cleared.
  void BeginDrain() {
    common::MutexLock lock(&mu_);
    draining_ = true;
  }

  /// Blocks until no popped item is still being served. Queued items may
  /// remain: this is the quiesce to pair with Pause(), which parks the
  /// worker and therefore makes waiting for an *empty* queue a deadlock.
  void WaitActiveDrained() {
    common::MutexLock lock(&mu_);
    while (active_ != 0) cv_.Wait(mu_);
  }

  /// Blocks until nothing is queued or being served (responses for all
  /// admitted requests are buffered on their connections by then). The
  /// worker must be running (not paused) for the queue to drain.
  void WaitIdle() {
    common::MutexLock lock(&mu_);
    while (!items_.empty() || active_ != 0) cv_.Wait(mu_);
  }

  size_t depth() const {
    common::MutexLock lock(&mu_);
    return items_.size();
  }
  size_t peak_depth() const {
    common::MutexLock lock(&mu_);
    return peak_depth_;
  }
  uint64_t shed() const {
    common::MutexLock lock(&mu_);
    return shed_;
  }

 private:
  const size_t capacity_;
  mutable common::Mutex mu_;
  common::CondVar cv_;
  std::deque<QueueItem> items_ HDIDX_GUARDED_BY(mu_);
  size_t active_ HDIDX_GUARDED_BY(mu_) = 0;
  size_t peak_depth_ HDIDX_GUARDED_BY(mu_) = 0;
  uint64_t shed_ HDIDX_GUARDED_BY(mu_) = 0;
  bool paused_ HDIDX_GUARDED_BY(mu_) = false;
  bool draining_ HDIDX_GUARDED_BY(mu_) = false;
  bool shutdown_ HDIDX_GUARDED_BY(mu_) = false;
};

}  // namespace

class AsyncServer::Impl {
 public:
  Impl(PredictionService* service, const AsyncServerOptions& options)
      : service_(service), options_(options) {}

  ~Impl() {
    Stop();
    JoinAll();
  }

  bool Start(std::string* error);
  uint64_t Wait();
  void Stop();

  uint16_t port() const { return port_; }
  uint64_t served() const {
    return served_.load(std::memory_order_relaxed);
  }

  void PauseServing();
  void ResumeServing();

 private:
  /// Service metrics plus this server's per-shard queue-depth / peak /
  /// shed gauges and the shed total: the stats op's payload.
  ServiceMetrics MetricsSnapshot() const;
  void EventLoop();
  void WorkerLoop(size_t shard);

  /// Adds `fd` to the loop's interest set, level-triggered on `events`.
  bool Watch(int fd, uint32_t events);
  /// Accepts every pending connection. False when accept ran out of
  /// descriptors or buffers, so the caller backs off.
  bool AcceptConnections();
  void HandleFlushes();
  void ReadConnection(const std::shared_ptr<Connection>& conn);
  void ProcessInbound(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const wire::FrameHeader& header, std::string_view payload);
  void HandleLoad(const std::shared_ptr<Connection>& conn, uint64_t id,
                  const RequestLine& request);
  void HandleShutdown(const std::shared_ptr<Connection>& conn, uint64_t id);

  /// Appends bytes on the loop's own thread and flushes immediately.
  void LoopSend(const std::shared_ptr<Connection>& conn, std::string frame,
                bool close_after = false);
  /// Appends bytes from a shard worker and nudges the loop.
  void SendFromWorker(const std::shared_ptr<Connection>& conn,
                      std::string frame);
  void FlushConnection(const std::shared_ptr<Connection>& conn);
  void UpdateInterest(const std::shared_ptr<Connection>& conn,
                      bool want_write, size_t pending_bytes);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void CloseAllConnections();
  void JoinAll();
  void CloseFds();

  static bool IsClosed(const std::shared_ptr<Connection>& conn) {
    common::MutexLock lock(&conn->mu);
    return conn->closed;
  }

  PredictionService* const service_;
  const AsyncServerOptions options_;

  /// Sockets and thread/queue containers are created in Start() before
  /// any server thread exists and are structurally immutable afterwards.
  int listen_fd_ HDIDX_UNGUARDED = -1;
  int epoll_fd_ HDIDX_UNGUARDED = -1;
  int wake_fd_ HDIDX_UNGUARDED = -1;
  uint16_t port_ HDIDX_UNGUARDED = 0;
  std::vector<std::unique_ptr<ShardQueue>> queues_ HDIDX_UNGUARDED;
  std::vector<std::thread> threads_ HDIDX_UNGUARDED;

  /// Live connections by fd — event loop only.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_ HDIDX_UNGUARDED;
  /// Connections a shard worker gave bytes to while their outbound buffer
  /// was drained; the loop flushes them when woken.
  common::Mutex flush_mu_;
  std::vector<std::shared_ptr<Connection>> pending_flushes_
      HDIDX_GUARDED_BY(flush_mu_);

  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> joined_{false};

  common::Mutex state_mu_;
  common::CondVar state_cv_;
  bool stop_requested_ HDIDX_GUARDED_BY(state_mu_) = false;
};

bool AsyncServer::Impl::Start(std::string* error) {
  HDIDX_CHECK(threads_.empty()) << "Start() called twice";

  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    CloseFds();
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = wire::HostToNet16(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad host address: " + options_.host;
    CloseFds();
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind " + options_.host + ":" + std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) return fail("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  // HostToNet16 is an involution, so it also converts net->host.
  port_ = wire::HostToNet16(bound.sin_port);

  epoll_fd_ = ::epoll_create1(0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0 || !Watch(wake_fd_, EPOLLIN) ||
      !Watch(listen_fd_, EPOLLIN)) {
    return fail("epoll/eventfd");
  }

  const size_t num_shards = service_->num_shards();
  queues_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    queues_.push_back(std::make_unique<ShardQueue>(
        std::max<size_t>(1, options_.shard_queue_capacity)));
  }

  threads_.emplace_back([this] { EventLoop(); });
  for (size_t s = 0; s < num_shards; ++s) {
    threads_.emplace_back([this, s] { WorkerLoop(s); });
  }
  return true;
}

uint64_t AsyncServer::Impl::Wait() {
  {
    common::MutexLock lock(&state_mu_);
    while (!stop_requested_) state_cv_.Wait(state_mu_);
  }
  JoinAll();
  return served();
}

void AsyncServer::Impl::Stop() {
  {
    common::MutexLock lock(&state_mu_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  for (auto& queue : queues_) queue->Shutdown();
  if (wake_fd_ >= 0) WakeEventFd(wake_fd_);
  {
    common::MutexLock lock(&state_mu_);
    state_cv_.NotifyAll();
  }
}

void AsyncServer::Impl::JoinAll() {
  if (joined_.exchange(true)) return;
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  CloseFds();
}

void AsyncServer::Impl::CloseFds() {
  for (int* fd : {&epoll_fd_, &wake_fd_, &listen_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

ServiceMetrics AsyncServer::Impl::MetricsSnapshot() const {
  ServiceMetrics m = service_->Metrics();
  HDIDX_DCHECK(m.shards.size() == queues_.size());
  uint64_t shed_total = 0;
  for (size_t s = 0; s < queues_.size() && s < m.shards.size(); ++s) {
    m.shards[s].queue_depth = queues_[s]->depth();
    m.shards[s].peak_queue_depth = queues_[s]->peak_depth();
    m.shards[s].shed = queues_[s]->shed();
    shed_total += m.shards[s].shed;
  }
  m.shed_total = shed_total;
  return m;
}

void AsyncServer::Impl::PauseServing() {
  for (auto& queue : queues_) queue->Pause();
}

void AsyncServer::Impl::ResumeServing() {
  for (auto& queue : queues_) queue->Resume();
}

bool AsyncServer::Impl::Watch(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void AsyncServer::Impl::EventLoop() {
  using Clock = std::chrono::steady_clock;
  // After accept ran out of descriptors or buffers, the listen socket is
  // out of the interest set until `rearm_at`: its backlog entry stays, so
  // the level-triggered socket would re-fire at once. The loop keeps
  // serving its connections meanwhile.
  bool listening = true;
  Clock::time_point rearm_at;
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    int timeout_ms = -1;
    if (!listening) {
      timeout_ms = static_cast<int>(std::max<Clock::rep>(
          0, std::chrono::ceil<std::chrono::milliseconds>(rearm_at -
                                                          Clock::now())
                 .count()));
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!listening && Clock::now() >= rearm_at) {
      listening = Watch(listen_fd_, EPOLLIN);
      if (!listening) rearm_at = Clock::now() + kAcceptBackoff;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        DrainEventFd(wake_fd_);
        HandleFlushes();
        continue;
      }
      if (fd == listen_fd_) {
        if (!AcceptConnections()) {
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          listening = false;
          rearm_at = Clock::now() + kAcceptBackoff;
        }
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      // Copy: handlers may erase the map entry.
      const std::shared_ptr<Connection> conn = it->second;
      const uint32_t mask = events[i].events;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((mask & EPOLLOUT) != 0) FlushConnection(conn);
      if ((mask & EPOLLIN) != 0) ReadConnection(conn);
    }
  }
  CloseAllConnections();
}

bool AsyncServer::Impl::AcceptConnections() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNABORTED) continue;  // that peer is gone; next
      // EAGAIN (backlog drained) or a hard error end this round; running
      // out of descriptors or buffers asks for a backoff.
      return errno != EMFILE && errno != ENFILE && errno != ENOBUFS &&
             errno != ENOMEM;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!Watch(fd, EPOLLIN)) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>(fd);
    conn->armed_events = EPOLLIN;
    conns_.emplace(fd, std::move(conn));
  }
}

void AsyncServer::Impl::WorkerLoop(size_t shard) {
  ShardQueue& queue = *queues_[shard];
  QueueItem item;
  while (queue.Pop(&item)) {
    // Decode here, off the event loop. The frame boundary was already
    // sound (NextFrame accepted it), so a decode failure only poisons this
    // request: report against its id and leave the connection serving.
    // Per-shard FIFO keeps the error in admission order relative to the
    // connection's other predicts.
    RequestLine request;
    std::string error;
    if (!wire::DecodeRequest(item.header, item.payload, &request, &error)) {
      SendFromWorker(item.conn, wire::EncodeErrorFrame(item.header.id, error));
    } else {
      const ServiceResponse response =
          service_->ServeOnShard(shard, request.predict);
      served_.fetch_add(1, std::memory_order_relaxed);
      SendFromWorker(item.conn,
                     wire::EncodePredictResponse(response,
                                                 request.predict.per_query));
    }
    queue.FinishItem();
    // Drop the connection reference before blocking on the next item.
    item = QueueItem{};
  }
}

void AsyncServer::Impl::HandleFlushes() {
  std::vector<std::shared_ptr<Connection>> flushes;
  {
    common::MutexLock lock(&flush_mu_);
    flushes.swap(pending_flushes_);
  }
  // FlushConnection skips a connection closed since its worker queued it.
  for (const auto& conn : flushes) FlushConnection(conn);
}

void AsyncServer::Impl::ReadConnection(
    const std::shared_ptr<Connection>& conn) {
  char buffer[64 * 1024];
  bool peer_done = false;
  while (!conn->reading_paused) {
    const ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn->inbound.append(buffer, static_cast<size_t>(n));
      ProcessInbound(conn);
      if (conns_.count(conn->fd) == 0) return;  // handler closed it
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    peer_done = true;  // EOF or hard error
    break;
  }
  if (peer_done) CloseConnection(conn);
}

void AsyncServer::Impl::ProcessInbound(
    const std::shared_ptr<Connection>& conn) {
  size_t offset = 0;
  bool poisoned = false;
  bool done = false;
  while (!done) {
    wire::FrameHeader header;
    std::string_view payload;
    std::string error;
    size_t consumed = 0;
    const std::string_view rest(conn->inbound.data() + offset,
                                conn->inbound.size() - offset);
    const wire::FrameStatus status =
        wire::NextFrame(rest, wire::kDefaultMaxPayload, &consumed, &header,
                        &payload, &error);
    switch (status) {
      case wire::FrameStatus::kNeedMore:
        done = true;
        break;
      case wire::FrameStatus::kFrame:
        offset += consumed;
        HandleFrame(conn, header, payload);
        if (conns_.count(conn->fd) == 0 || IsClosed(conn)) done = true;
        break;
      case wire::FrameStatus::kError:
        // Framing is lost: answer with one protocol-error frame and close
        // once it is flushed. Nothing after this point is parseable.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        LoopSend(conn, wire::EncodeErrorFrame(0, error), /*close_after=*/true);
        poisoned = true;
        done = true;
        break;
    }
  }
  if (poisoned) {
    conn->inbound.clear();
  } else if (offset > 0) {
    conn->inbound.erase(0, offset);
  }
}

void AsyncServer::Impl::HandleFrame(const std::shared_ptr<Connection>& conn,
                                    const wire::FrameHeader& header,
                                    std::string_view payload) {
  if (header.op == wire::WireOp::kPredict &&
      (header.flags & wire::kFlagResponse) == 0) {
    // Predicts are the hot path: the loop peeks only the routing key and
    // hands the still-encoded frame to the shard worker, which decodes
    // before serving. Admission control stays here so shed responses are
    // deterministic under backpressure (a full queue answers immediately,
    // in arrival order, regardless of worker progress).
    std::string dataset;
    if (!wire::PeekPredictDataset(payload, &dataset)) {
      // Too short to carry a routing key — no shard to decode it on, so
      // this is the one predict decode error reported from the loop.
      LoopSend(conn, wire::EncodeErrorFrame(header.id,
                                            "malformed predict payload"));
      return;
    }
    const size_t shard = service_->registry().ShardOf(dataset);
    QueueItem item;
    item.conn = conn;
    item.header = header;
    item.payload = std::string(payload);
    if (!queues_[shard]->TryPush(std::move(item))) {
      LoopSend(conn, wire::EncodeShedResponse(header.id,
                                              static_cast<uint32_t>(shard),
                                              options_.retry_after_ms));
    }
    return;
  }
  // Control-plane ops (load/stats/shutdown) are rare and tiny: decode and
  // handle inline on the loop.
  RequestLine request;
  std::string error;
  if (!wire::DecodeRequest(header, payload, &request, &error)) {
    // The frame boundary was sound, so the stream stays usable: report
    // against this id and keep serving the connection.
    LoopSend(conn, wire::EncodeErrorFrame(header.id, error));
    return;
  }
  switch (request.op) {
    case RequestLine::Op::kPredict:
      // Unreachable: predicts took the peek-and-enqueue path above.
      break;
    case RequestLine::Op::kLoad:
      HandleLoad(conn, header.id, request);
      break;
    case RequestLine::Op::kStats:
      LoopSend(conn, wire::EncodeStatsResponse(header.id, MetricsSnapshot()));
      break;
    case RequestLine::Op::kShutdown:
      HandleShutdown(conn, header.id);
      break;
  }
}

void AsyncServer::Impl::HandleLoad(const std::shared_ptr<Connection>& conn,
                                   uint64_t id, const RequestLine& request) {
  // Registry mutation is HDIDX_BUILD_ONLY: park every shard worker and
  // wait out the in-flight serves so no Find() races the load. Only
  // in-flight — queued predicts stay queued (a parked worker cannot drain
  // them, so waiting for empty queues here would deadlock the loop) and
  // are served against the updated registry after Resume. The loop itself
  // is the only thread that loads or admits, so nothing else contends.
  wire::LoadResult result;
  result.dataset = request.load_dataset;
  for (auto& queue : queues_) queue->Pause();
  for (auto& queue : queues_) queue->WaitActiveDrained();
  std::string load_error;
  result.ok = service_->registry().LoadFile(request.load_dataset,
                                            request.load_path, &load_error);
  if (result.ok) {
    const data::Dataset* dataset =
        service_->registry().Find(request.load_dataset);
    result.points = dataset->size();
    result.dims = static_cast<uint32_t>(dataset->dim());
    result.shard = static_cast<uint32_t>(
        service_->registry().ShardOf(request.load_dataset));
  } else {
    result.error = load_error;
  }
  for (auto& queue : queues_) queue->Resume();
  LoopSend(conn, wire::EncodeLoadResponse(id, result));
}

void AsyncServer::Impl::HandleShutdown(const std::shared_ptr<Connection>& conn,
                                       uint64_t id) {
  // Drain first so every admitted predict's response is buffered on its
  // connection before the ack — a pipelined client that reads to the ack
  // has, by then, every response it was owed. The loop is the only thread
  // that admits predicts, so the drain is finite; BeginDrain sheds the
  // predicts parsed after this frame, and Resume unparks workers (a
  // test-seam pause would otherwise stall WaitIdle forever).
  for (auto& queue : queues_) queue->BeginDrain();
  for (auto& queue : queues_) queue->Resume();
  for (auto& queue : queues_) queue->WaitIdle();
  LoopSend(conn, wire::EncodeShutdownResponse(
                     id, served_.load(std::memory_order_relaxed)));
  Stop();
}

void AsyncServer::Impl::LoopSend(const std::shared_ptr<Connection>& conn,
                                 std::string frame, bool close_after) {
  {
    common::MutexLock lock(&conn->mu);
    if (conn->closed) return;
    conn->outbound.append(frame);
    if (close_after) conn->close_after_flush = true;
  }
  FlushConnection(conn);
}

void AsyncServer::Impl::SendFromWorker(
    const std::shared_ptr<Connection>& conn, std::string frame) {
  bool was_drained = false;
  {
    common::MutexLock lock(&conn->mu);
    if (conn->closed) return;
    was_drained = conn->out_offset == conn->outbound.size();
    conn->outbound.append(frame);
  }
  if (was_drained) {
    // First bytes since the last full drain: the loop has neither EPOLLOUT
    // armed nor a flush pending, so nudge it.
    {
      common::MutexLock lock(&flush_mu_);
      pending_flushes_.push_back(conn);
    }
    WakeEventFd(wake_fd_);
  }
}

void AsyncServer::Impl::FlushConnection(
    const std::shared_ptr<Connection>& conn) {
  bool close_now = false;
  bool want_write = false;
  size_t pending = 0;
  {
    common::MutexLock lock(&conn->mu);
    if (conn->closed) return;
    close_now = !conn->WriteOutbound(/*poll_rounds=*/0);
    if (!close_now) {
      if (conn->out_offset == conn->outbound.size()) {
        conn->outbound.clear();
        conn->out_offset = 0;
        if (conn->close_after_flush) close_now = true;
      } else {
        want_write = true;
      }
      pending = conn->outbound.size() - conn->out_offset;
    }
  }
  if (close_now) {
    CloseConnection(conn);
    return;
  }
  UpdateInterest(conn, want_write, pending);
}

void AsyncServer::Impl::UpdateInterest(const std::shared_ptr<Connection>& conn,
                                       bool want_write, size_t pending_bytes) {
  // Backpressure: a peer that stops reading accumulates outbound bytes;
  // past the limit we stop reading *it* until its buffer fully drains, so
  // a slow consumer cannot pin unbounded response memory.
  if (pending_bytes > kWriteBufferLimit) {
    conn->reading_paused = true;
  } else if (pending_bytes == 0) {
    conn->reading_paused = false;
  }
  const uint32_t wanted = (conn->reading_paused ? 0u : EPOLLIN) |
                          (want_write ? EPOLLOUT : 0u);
  if (wanted == conn->armed_events) return;
  epoll_event ev{};
  ev.events = wanted;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->armed_events = wanted;
  }
}

void AsyncServer::Impl::CloseConnection(
    const std::shared_ptr<Connection>& conn) {
  const auto it = conns_.find(conn->fd);
  if (it == conns_.end()) return;  // already closed
  {
    common::MutexLock lock(&conn->mu);
    conn->closed = true;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(it);
}

void AsyncServer::Impl::CloseAllConnections() {
  // Deliver what is already buffered (e.g. the shutdown ack) with a
  // bounded best-effort flush, then close everything. The fd stays
  // non-blocking throughout: a peer that stopped reading gets a small
  // POLLOUT grace budget, not a hold on shutdown — an unflushed tail is
  // the peer's loss, a wedged Wait()/JoinAll() would be everyone's.
  for (auto& [fd, conn] : conns_) {
    common::MutexLock lock(&conn->mu);
    conn->closed = true;
    conn->WriteOutbound(kFlushPollRounds);
    ::close(fd);
  }
  conns_.clear();
}

AsyncServer::AsyncServer(PredictionService* service,
                         const AsyncServerOptions& options)
    : impl_(std::make_unique<Impl>(service, options)) {}

AsyncServer::~AsyncServer() = default;

bool AsyncServer::Start(std::string* error) { return impl_->Start(error); }
uint16_t AsyncServer::port() const { return impl_->port(); }
uint64_t AsyncServer::Wait() { return impl_->Wait(); }
void AsyncServer::Stop() { impl_->Stop(); }
uint64_t AsyncServer::served() const { return impl_->served(); }
void AsyncServer::PauseServingForTest() { impl_->PauseServing(); }
void AsyncServer::ResumeServingForTest() { impl_->ResumeServing(); }

}  // namespace hdidx::service

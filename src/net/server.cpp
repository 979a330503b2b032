#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/packing.hpp"
#include "core/packing_hash.hpp"

namespace dvbp::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

/// A connection whose unflushed responses exceed this is not reading what
/// it asked for; close it rather than buffer without bound. (Arrive/Depart
/// responses are already bounded by the in-flight window; this bounds the
/// inline-answered types: Ping, Query, rejections.)
constexpr std::size_t kMaxWriteBuffer = 16 * 1024 * 1024;

/// How long loop 0 stops watching the listen socket after accept4 found no
/// descriptor (or no kernel memory) for a queued connection.
constexpr auto kAcceptPause = std::chrono::milliseconds(50);

/// Adds `fd` to `epfd`'s level-triggered read set; false on failure.
bool watch_readable(int epfd, int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  return ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

std::string errno_str(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

std::chrono::steady_clock::time_point now_tp() {
  return std::chrono::steady_clock::now();
}

}  // namespace

// ---------------------------------------------------------------------------
// ServerCore / Connection

ServerCore::ServerCore(cloud::ShardedCore& service,
                       const ServerOptions& options)
    : service_(service),
      max_inflight_(options.max_inflight_per_conn),
      gate_(options.gate) {
  if (max_inflight_ == 0) {
    throw std::invalid_argument(
        "PlacementServer: max_inflight_per_conn must be >= 1");
  }
  if (options.metrics != nullptr) {
    auto& m = *options.metrics;
    frames_in_ = &m.counter("dvbp.net.frames_in_total");
    frames_out_ = &m.counter("dvbp.net.frames_out_total");
    decode_errors_ = &m.counter("dvbp.net.decode_errors_total");
    requests_total_ = &m.counter("dvbp.net.requests_total");
    backpressure_ = &m.counter("dvbp.net.backpressure_rejections_total");
    request_latency_ = &m.histogram("dvbp.net.request_latency_ns",
                                    obs::default_latency_bounds_ns());
  }
}

Response ServerCore::drain() {
  if (drained_) return drained_answer_;
  refuse_new_work();
  Response& answer = drained_answer_;
  try {
    // drain() rethrows a step's error first.
    service_.drain();
    const Packing p = service_.snapshot();
    answer.packing_hash = packing_hash(p);
    answer.num_bins = p.num_bins();
    answer.cost = p.cost();
    service_.sync_journals();
  } catch (...) {
    // A step or a journal failed: the accepted ops were answered, but the
    // final state is not what a client was told.
    answer = Response{};
    answer.status = Status::kInternalError;
  }
  drained_ = true;
  return answer;
}

bool Connection::receive(const std::uint8_t* data, std::size_t size) {
  try {
    decoder_.feed(data, size);
    while (auto payload = decoder_.next()) {
      if (core_.frames_in_ != nullptr) core_.frames_in_->inc();
      process(decode_request(payload->data(), payload->size()));
    }
  } catch (const FrameError&) {
    if (core_.decode_errors_ != nullptr) core_.decode_errors_->inc();
    return false;
  }
  return true;
}

void Connection::process(Request req) {
  if (core_.requests_total_ != nullptr) core_.requests_total_->inc();
  Response resp;
  resp.id = req.id;
  resp.type = req.type;
  cloud::ShardedCore& service = core_.service_;
  switch (req.type) {
    case MsgType::kPing:
      break;

    case MsgType::kQuery:
      try {
        resp.cost = service.cost_so_far(req.time);
        resp.open_bins = service.open_bins();
        resp.jobs_active = service.jobs_active();
        resp.jobs_admitted = service.jobs_admitted();
      } catch (const std::invalid_argument&) {
        resp.status = Status::kBadRequest;
      } catch (...) {
        resp.status = Status::kInternalError;
      }
      break;

    case MsgType::kSnapshot:
      try {
        const Packing p = service.snapshot();
        resp.packing_hash = packing_hash(p);
        resp.num_bins = p.num_bins();
        resp.cost = p.cost();
      } catch (const std::logic_error&) {
        resp.status = Status::kNotQuiescent;
      } catch (...) {
        resp.status = Status::kInternalError;
      }
      break;

    case MsgType::kDrain: {
      // This connection's last frame: its driver closes every connection
      // once flushed.
      const Response drained = core_.drain();
      resp.status = drained.status;
      resp.packing_hash = drained.packing_hash;
      resp.num_bins = drained.num_bins;
      resp.cost = drained.cost;
      break;
    }

    case MsgType::kArrive:
    case MsgType::kDepart:
      submit(req, resp);
      return;
  }
  respond(resp);
}

void Connection::submit(Request& req, Response& resp) {
  // Asynchronous: an accepted op is answered by the completion hookup.
  if (core_.draining()) {
    resp.status = Status::kShuttingDown;
    respond(resp);
    return;
  }
  if (pending_.size() >= core_.max_inflight_) {
    if (core_.backpressure_ != nullptr) core_.backpressure_->inc();
    resp.status = Status::kRetryLater;
    respond(resp);
    return;
  }
  if (pending_.contains(req.id)) {
    resp.status = Status::kBadRequest;  // request id already in flight
    respond(resp);
    return;
  }
  const Pending pending{req.type, now_tp()};

  // Tenant admission gate: decided in the front-end, before the service
  // ever sees the op, so the decision sequence is shard-count-independent.
  // A denial is a typed RETRY_LATER -- the client backs off and retries,
  // never queues invisibly.
  tenancy::AdmissionGate* gate = core_.gate_;
  const bool gated = gate != nullptr && req.type == MsgType::kArrive;
  const double gate_units = gated ? req.size.linf() : 0.0;
  bool booked = false;
  bool accepted = false;
  Status failure = Status::kRetryLater;
  try {
    booked = gated && gate->admit(req.time, req.tenant, req.size, req.id);
    if (gated && !booked) {
      // Over quota without credits: answered RETRY_LATER below.
    } else if (req.type == MsgType::kArrive) {
      const TenantId tenant = req.tenant;
      const auto job =
          core_.service_.try_arrive(req.time, std::move(req.size),
                                    req.expected_departure,
                                    shared_from_this(), req.id, tenant);
      accepted = job.has_value();
      if (accepted && gated) {
        core_.tenant_of_job_.emplace(*job, std::make_pair(tenant, gate_units));
      }
    } else {
      accepted = core_.service_.try_depart(req.time, req.job,
                                           shared_from_this(), req.id);
      if (accepted && gate != nullptr) {
        // Release what the job's Arrive booked (possibly on another
        // connection); unknown ids were admitted before the gate existed.
        const auto it =
            core_.tenant_of_job_.find(static_cast<JobId>(req.job));
        if (it != core_.tenant_of_job_.end()) {
          gate->release_units(it->second.first, it->second.second);
          core_.tenant_of_job_.erase(it);
        }
      }
    }
  } catch (const std::invalid_argument&) {
    failure = req.type == MsgType::kArrive ? Status::kBadRequest
                                           : Status::kUnknownJob;
  } catch (...) {
    failure = Status::kInternalError;
  }
  if (accepted) {
    // No step runs inside try_arrive/try_depart, so the completion fires
    // after this entry exists.
    pending_.emplace(req.id, pending);
    return;
  }
  // A gated-then-refused submission must give the booked demand back.
  if (booked) gate->release_units(req.tenant, gate_units);
  if (failure == Status::kRetryLater && core_.backpressure_ != nullptr) {
    core_.backpressure_->inc();
  }
  resp.status = failure;
  respond(resp);
}

void Connection::respond(const Response& resp) {
  encode_response(resp, output_);
  if (core_.frames_out_ != nullptr) core_.frames_out_->inc();
}

void Connection::op_applied(std::uint64_t cookie, JobId job) noexcept {
  // A closed connection has its pending map cleared, so a completion that
  // comes after the close drops out here.
  const auto it = pending_.find(cookie);
  if (it == pending_.end()) return;
  if (core_.request_latency_ != nullptr) {
    const std::chrono::nanoseconds latency = now_tp() - it->second.received;
    core_.request_latency_->observe(static_cast<double>(latency.count()));
  }
  Response resp;
  resp.id = cookie;
  resp.type = it->second.type;
  if (job == kNoItem) {
    resp.status = Status::kInternalError;  // not applied and committed
  } else {
    resp.job = job;
  }
  pending_.erase(it);
  try {
    respond(resp);
  } catch (...) {
    // Allocation failure encoding the response: the client will see the
    // connection close (or time out) rather than a missing frame.
  }
  answered();
}

// ---------------------------------------------------------------------------
// Socket

struct PlacementServer::Socket final : Connection {
  Socket(ServerCore& core, int fd, PlacementServer& server)
      : Connection(core), fd(fd), server(server) {}

  void answered() noexcept override {
    try {
      server.to_flush_.push_back(
          std::static_pointer_cast<Socket>(shared_from_this()));
    } catch (...) {
      // The answer stays in output() until the connection's next wake.
    }
  }

  // `fd` doubles as the liveness flag (-1 once closed).
  int fd;
  PlacementServer& server;
  std::size_t write_pos = 0;  ///< output() bytes already written
  bool want_write = false;    ///< EPOLLOUT currently armed
  bool close_after_flush = false;
};

// ---------------------------------------------------------------------------
// Signal hookup

namespace {
std::atomic<PlacementServer*> g_signal_server{nullptr};

extern "C" void dvbp_net_signal_handler(int) {
  PlacementServer* s = g_signal_server.load(std::memory_order_relaxed);
  if (s != nullptr) s->request_drain();  // atomic store + eventfd write
}
}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle

PlacementServer::PlacementServer(cloud::ShardedCore& service,
                                 ServerOptions options)
    : service_(service), core_(service, options) {
  if (options.event_loops != 1) {
    throw std::invalid_argument(
        "PlacementServer: event_loops must be 1 (one loop steps the "
        "service)");
  }
  if (options.metrics != nullptr) {
    auto& m = *options.metrics;
    connections_total_ = &m.counter("dvbp.net.connections_total");
    connections_active_ = &m.gauge("dvbp.net.connections_active");
    bytes_in_ = &m.counter("dvbp.net.bytes_in_total");
    bytes_out_ = &m.counter("dvbp.net.bytes_out_total");
  }

  // All fds first (cleanup on failure), the thread last.
  auto fail = [this](const std::string& why) {
    close_fds();
    throw NetError(why);
  };

  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) fail(errno_str("socket"));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    fail("PlacementServer: bad listen host " + options.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    fail(errno_str("bind"));
  }
  if (::listen(listen_fd_, 128) < 0) fail(errno_str("listen"));

  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &blen) < 0) {
    fail(errno_str("getsockname"));
  }
  port_ = ntohs(bound.sin_port);

  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epfd_ < 0 || wake_fd_ < 0) fail(errno_str("epoll_create1/eventfd"));
  if (!watch_readable(epfd_, wake_fd_) || !watch_readable(epfd_, listen_fd_)) {
    fail(errno_str("epoll_ctl"));
  }

  // From here on the loop is the only thread that steps the service.
  service_.stop_workers();
  try {
    loop_ = std::thread([this] { loop_run(); });
  } catch (...) {
    close_fds();
    throw;
  }
}

PlacementServer::~PlacementServer() {
  stop();
  PlacementServer* self = this;
  g_signal_server.compare_exchange_strong(self, nullptr);
  close_fds();
}

void PlacementServer::close_listener() noexcept {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void PlacementServer::close_fds() noexcept {
  close_listener();
  for (int* fd : {&epfd_, &wake_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void PlacementServer::notify() noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void PlacementServer::request_drain() noexcept {
  core_.refuse_new_work();
  notify();
}

void PlacementServer::install_signal_drain(int signo) {
  PlacementServer* expected = nullptr;
  if (!g_signal_server.compare_exchange_strong(expected, this) &&
      expected != this) {
    throw std::logic_error(
        "install_signal_drain: another PlacementServer owns the handlers");
  }
  struct sigaction sa{};
  sa.sa_handler = &dvbp_net_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  if (::sigaction(signo, &sa, nullptr) != 0) {
    throw NetError(errno_str("sigaction"));
  }
}

void PlacementServer::wait() { join_loop(); }

void PlacementServer::join_loop() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (loop_.joinable()) loop_.join();
}

void PlacementServer::stop() {
  bool expected = false;
  if (stopped_.compare_exchange_strong(expected, true)) {
    // seq_cst store order matters: a loop that observes draining() must
    // also observe shutdown_loop_, so it does not start a graceful drain
    // in response to a hard stop.
    shutdown_loop_.store(true);
    core_.refuse_new_work();
    notify();
  }
  join_loop();
  // Ops the loop's last wake submitted may still be queued; apply them now
  // that no loop steps. Their connections are closed, so their
  // completions drop out.
  try {
    service_.drain();
  } catch (...) {
  }
  close_listener();  // the loop closes it unless it never ran
}

// ---------------------------------------------------------------------------
// Event loop

void PlacementServer::accept_all() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // The connection stays queued, so the level-triggered watch would
        // wake the loop at once for as long as the shortage lasts: stop
        // watching for kAcceptPause (loop_run resumes it).
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        accept_resume_at_ = std::chrono::steady_clock::now() + kAcceptPause;
      }
      return;  // EAGAIN, or an error that dropped the connection
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (connections_total_ != nullptr) connections_total_->inc();
    if (!watch_readable(epfd_, fd)) {
      ::close(fd);
      continue;
    }
    if (connections_active_ != nullptr) connections_active_->add(1.0);
    conns_.emplace(fd, std::make_shared<Socket>(core_, fd, *this));
  }
}

void PlacementServer::loop_run() {
  std::array<epoll_event, 64> events{};
  for (;;) {
    int timeout_ms = -1;
    if (accept_resume_at_) {
      timeout_ms = static_cast<int>(std::max<std::int64_t>(
          0, std::chrono::ceil<std::chrono::milliseconds>(
                 *accept_resume_at_ - std::chrono::steady_clock::now())
                 .count()));
    }
    const int n = ::epoll_wait(epfd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t v = 0;
        while (::read(wake_fd_, &v, sizeof(v)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        accept_all();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this batch
      std::shared_ptr<Socket> conn = it->second;  // close erases the map
      const std::uint32_t ev = events[i].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(conn);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) flush_writes(conn);
      if (conn->fd >= 0 && (ev & EPOLLIN) != 0) handle_readable(conn);
    }
    if (accept_resume_at_ &&
        std::chrono::steady_clock::now() >= *accept_resume_at_) {
      accept_resume_at_.reset();
      // A drain may have closed the listen socket meanwhile.
      if (listen_fd_ >= 0 && !watch_readable(epfd_, listen_fd_)) {
        accept_resume_at_ = std::chrono::steady_clock::now() + kAcceptPause;
      }
    }
    if (shutdown_loop_.load(std::memory_order_acquire)) {
      while (!conns_.empty()) close_conn(conns_.begin()->second);
      break;
    }
    // A drain asked for by a signal or by a Drain RPC runs here, once.
    if (core_.draining() && !graceful_close_) {
      close_listener();  // stop accepting first
      core_.drain();
      graceful_close_ = true;
    }
    // Run to completion: apply and commit what this wake submitted, then
    // write every connection that got an answer.
    for (std::size_t s = 0; s < service_.shards(); ++s) {
      while (service_.step(s) != 0) {
      }
    }
    for (const auto& conn : to_flush_) flush_writes(conn);
    to_flush_.clear();
    if (graceful_close_) {
      // Close-out sweep: every connection closes once its last response is
      // flushed. Snapshot the map first -- closing mutates it.
      std::vector<std::shared_ptr<Socket>> all;
      all.reserve(conns_.size());
      for (auto& [cfd, c] : conns_) all.push_back(c);
      for (auto& c : all) {
        c->close_after_flush = true;
        flush_writes(c);  // also closes when idle
      }
      if (conns_.empty()) break;
    }
  }
  close_listener();
}

void PlacementServer::handle_readable(const std::shared_ptr<Socket>& conn) {
  std::uint8_t buf[kReadChunk];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      if (bytes_in_ != nullptr) {
        bytes_in_->inc(static_cast<std::uint64_t>(n));
      }
      if (!conn->receive(buf, static_cast<std::size_t>(n))) {
        close_conn(conn);  // malformed bytes
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;  // drained
    } else if (n == 0) {
      close_conn(conn);  // peer closed
      return;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno == EINTR) {
      continue;
    } else {
      close_conn(conn);
      return;
    }
  }
  // Written once at the end of the wake, with the answers its ops get:
  // coalesces pipelined responses into one write(2).
  to_flush_.push_back(conn);
}

void PlacementServer::flush_writes(const std::shared_ptr<Socket>& conn) {
  if (conn->fd < 0) return;
  std::vector<std::uint8_t>& out = conn->output();
  while (conn->write_pos < out.size()) {
    const ssize_t n = ::write(conn->fd, out.data() + conn->write_pos,
                              out.size() - conn->write_pos);
    if (n > 0) {
      conn->write_pos += static_cast<std::size_t>(n);
      if (bytes_out_ != nullptr) {
        bytes_out_->inc(static_cast<std::uint64_t>(n));
      }
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket full: arm EPOLLOUT and come back when it drains.
      if (!conn->want_write) {
        conn->want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = conn->fd;
        ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn->fd, &ev);
      }
      out.erase(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(conn->write_pos));
      conn->write_pos = 0;
      if (out.size() > kMaxWriteBuffer) {
        close_conn(conn);  // peer is not reading its responses
      }
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      close_conn(conn);
      return;
    }
  }
  out.clear();
  conn->write_pos = 0;
  if (conn->want_write) {
    conn->want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  if (conn->close_after_flush && conn->idle()) close_conn(conn);
}

void PlacementServer::close_conn(const std::shared_ptr<Socket>& conn) {
  // `conn` may alias the map's own shared_ptr (the shutdown sweep passes
  // `conns_.begin()->second` directly); keep a local owner so the erase
  // below cannot destroy the Socket out from under us.
  std::shared_ptr<Socket> keep = conn;
  if (keep->fd < 0) return;
  keep->close();
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, keep->fd, nullptr);
  ::close(keep->fd);
  conns_.erase(keep->fd);
  keep->fd = -1;
  if (connections_active_ != nullptr) connections_active_->add(-1.0);
}

}  // namespace dvbp::net

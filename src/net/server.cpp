#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

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
  std::lock_guard<std::mutex> lock(drain_mu_);
  if (drained_) return drained_answer_;
  refuse_new_work();
  Response& answer = drained_answer_;
  try {
    // A request that raced the flag can slip one more op in after a drain
    // (snapshot() then refuses with std::logic_error); each connection
    // admits finitely many such stragglers before it observes the flag,
    // so this converges. drain() rethrows a step's error first.
    for (;;) {
      service_.drain();
      try {
        const Packing p = service_.snapshot();
        answer.packing_hash = packing_hash(p);
        answer.num_bins = p.num_bins();
        answer.cost = p.cost();
        break;
      } catch (const std::logic_error&) {
      }
    }
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
  if (inflight_.load(std::memory_order_acquire) >= core_.max_inflight_) {
    if (core_.backpressure_ != nullptr) core_.backpressure_->inc();
    resp.status = Status::kRetryLater;
    respond(resp);
    return;
  }

  // Enter the pending map before submitting: the completion can fire on a
  // stepping thread before try_arrive/try_depart even returns.
  bool duplicate = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    duplicate =
        !pending_.emplace(req.id, Pending{req.type, now_tp()}).second;
  }
  if (duplicate) {
    resp.status = Status::kBadRequest;  // request id already in flight
    respond(resp);
    return;
  }
  inflight_.fetch_add(1, std::memory_order_acq_rel);

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
        std::lock_guard<std::mutex> lock(core_.tenant_mu_);
        core_.tenant_of_job_.emplace(*job, std::make_pair(tenant, gate_units));
      }
    } else {
      accepted = core_.service_.try_depart(req.time, req.job,
                                           shared_from_this(), req.id);
      if (accepted && gate != nullptr) {
        // Release what the job's Arrive booked (possibly on another
        // connection); unknown ids were admitted before the gate existed.
        std::pair<TenantId, double> job_booking{kNoTenant, 0.0};
        bool found = false;
        {
          std::lock_guard<std::mutex> lock(core_.tenant_mu_);
          const auto it =
              core_.tenant_of_job_.find(static_cast<JobId>(req.job));
          if (it != core_.tenant_of_job_.end()) {
            job_booking = it->second;
            found = true;
            core_.tenant_of_job_.erase(it);
          }
        }
        if (found) gate->release_units(job_booking.first, job_booking.second);
      }
    }
  } catch (const std::invalid_argument&) {
    failure = req.type == MsgType::kArrive ? Status::kBadRequest
                                           : Status::kUnknownJob;
  } catch (...) {
    failure = Status::kInternalError;
  }
  if (accepted) return;
  // A gated-then-refused submission must give the booked demand back.
  if (booked) gate->release_units(req.tenant, gate_units);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(req.id);
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
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
  const auto applied_at = now_tp();
  std::chrono::nanoseconds latency{0};
  try {
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A closed connection has its pending map cleared, so a completion
      // that raced the close drops out here -- and, crucially, never
      // reaches its driver, which may be tearing down by then.
      auto it = pending_.find(cookie);
      if (closed_ || it == pending_.end()) return;
      latency = applied_at - it->second.received;
      Response resp;
      resp.id = cookie;
      resp.type = it->second.type;
      if (job == kNoItem) {
        resp.status = Status::kInternalError;  // not applied and committed
      } else {
        resp.job = job;
      }
      pending_.erase(it);
      encode_response(resp, staged_);
      ++staged_frames_;
    }
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    if (core_.request_latency_ != nullptr) {
      core_.request_latency_->observe(static_cast<double>(latency.count()));
    }
    staged();
  } catch (...) {
    // Allocation failure encoding the response: the client will see the
    // connection close (or time out) rather than a missing frame.
  }
}

void Connection::collect() {
  std::uint64_t frames = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    output_.insert(output_.end(), staged_.begin(), staged_.end());
    staged_.clear();
    frames = std::exchange(staged_frames_, 0);
  }
  if (frames > 0 && core_.frames_out_ != nullptr) {
    core_.frames_out_->inc(frames);
  }
}

bool Connection::idle() {
  std::lock_guard<std::mutex> lock(mu_);
  return staged_.empty() && pending_.empty();
}

void Connection::close() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  pending_.clear();  // completions in flight drop out harmlessly
  staged_.clear();
  staged_frames_ = 0;
}

// ---------------------------------------------------------------------------
// Socket / EventLoop

struct PlacementServer::Socket final : Connection {
  Socket(ServerCore& core, int fd, EventLoop& loop)
      : Connection(core), fd(fd), loop(loop) {}

  void staged() noexcept override;

  // Loop-thread-only. `fd` doubles as the liveness flag (-1 once closed).
  int fd;
  EventLoop& loop;
  std::size_t write_pos = 0;  ///< output() bytes already written
  bool want_write = false;    ///< EPOLLOUT currently armed
  bool close_after_flush = false;
};

struct PlacementServer::EventLoop {
  int epfd = -1;
  int wake_fd = -1;
  std::thread thread;

  // Inbox: filled by loop 0 (new connections) and stepping threads
  // (completion flushes), drained by this loop's thread on each wake.
  std::mutex inbox_mu;
  std::vector<std::shared_ptr<Socket>> incoming;
  std::vector<std::shared_ptr<Socket>> flushes;
  /// Dedupes eventfd writes: one wake covers any number of inbox pushes.
  std::atomic<bool> wake_pending{false};

  // Loop-thread-only.
  std::unordered_map<int, std::shared_ptr<Socket>> conns;

  ~EventLoop() {
    if (epfd >= 0) ::close(epfd);
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void notify() noexcept {
    if (!wake_pending.exchange(true, std::memory_order_acq_rel)) {
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
    }
  }

  /// Hands a connection with staged completions to the loop thread.
  /// noexcept: an allocation failure here leaves the responses staged, to
  /// be collected on the connection's next pump.
  void schedule_flush(std::shared_ptr<Socket> conn) noexcept {
    try {
      {
        std::lock_guard<std::mutex> lock(inbox_mu);
        flushes.push_back(std::move(conn));
      }
      notify();
    } catch (...) {
    }
  }
};

void PlacementServer::Socket::staged() noexcept {
  loop.schedule_flush(std::static_pointer_cast<Socket>(shared_from_this()));
}

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

PlacementServer::PlacementServer(cloud::ShardedDispatcher& service,
                                 ServerOptions options)
    : service_(service), core_(service, options) {
  if (options.event_loops == 0) {
    throw std::invalid_argument("PlacementServer: event_loops must be >= 1");
  }
  if (options.metrics != nullptr) {
    auto& m = *options.metrics;
    connections_total_ = &m.counter("dvbp.net.connections_total");
    connections_active_ = &m.gauge("dvbp.net.connections_active");
    bytes_in_ = &m.counter("dvbp.net.bytes_in_total");
    bytes_out_ = &m.counter("dvbp.net.bytes_out_total");
  }

  // All fds first (cleanup on failure), threads last.
  auto fail = [this](const std::string& why) {
    close_listener();
    loops_.clear();  // ~EventLoop closes its fds
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

  const auto watch = [&fail](int epfd, int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      fail(errno_str("epoll_ctl"));
    }
  };
  loops_.reserve(options.event_loops);
  for (std::size_t i = 0; i < options.event_loops; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    loops_.push_back(std::move(loop));  // so fail() closes its fds
    EventLoop& l = *loops_.back();
    if (l.epfd < 0 || l.wake_fd < 0) fail(errno_str("epoll_create1/eventfd"));
    watch(l.epfd, l.wake_fd);
  }
  watch(loops_.front()->epfd, listen_fd_);  // loop 0 accepts

  try {
    for (auto& loop : loops_) {
      EventLoop* l = loop.get();
      l->thread = std::thread([this, l] { loop_run(*l); });
    }
  } catch (...) {
    shutdown_loops_.store(true);
    for (auto& loop : loops_) {
      if (loop->thread.joinable()) {
        loop->notify();
        loop->thread.join();
      }
    }
    close_listener();
    loops_.clear();
    throw;
  }
}

PlacementServer::~PlacementServer() {
  stop();
  PlacementServer* self = this;
  g_signal_server.compare_exchange_strong(self, nullptr);
}

void PlacementServer::close_listener() noexcept {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void PlacementServer::request_drain() noexcept {
  core_.refuse_new_work();
  loops_.front()->notify();
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

void PlacementServer::wait() { join_threads(); }

void PlacementServer::join_threads() {
  std::lock_guard<std::mutex> lock(join_mu_);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
}

void PlacementServer::stop() {
  bool expected = false;
  if (stopped_.compare_exchange_strong(expected, true)) {
    // seq_cst store order matters: a loop that observes draining() must
    // also observe shutdown_loops_, so none starts a graceful drain in
    // response to a hard stop.
    shutdown_loops_.store(true);
    core_.refuse_new_work();
    for (auto& loop : loops_) loop->notify();
  }
  join_threads();
  // Ops submitted by the loops' final iterations may still be queued; apply
  // them so no completion can run concurrently with our destruction.
  // (Completions fire before an op counts as applied, so drain() returning
  // bounds op_applied too.)
  try {
    service_.drain();
  } catch (...) {
  }
  close_listener();  // loop 0 closes it unless it never ran
}

void PlacementServer::begin_graceful_close() {
  graceful_close_.store(true, std::memory_order_release);
  for (auto& loop : loops_) loop->notify();
}

// ---------------------------------------------------------------------------
// Event loop

void PlacementServer::accept_all() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or transient (EMFILE...): retry on next wake
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    EventLoop& loop = *loops_[next_loop_++ % loops_.size()];
    if (connections_total_ != nullptr) connections_total_->inc();
    if (connections_active_ != nullptr) connections_active_->add(1.0);
    {
      std::lock_guard<std::mutex> lock(loop.inbox_mu);
      loop.incoming.push_back(std::make_shared<Socket>(core_, fd, loop));
    }
    loop.notify();
  }
}

void PlacementServer::loop_run(EventLoop& loop) {
  const bool owns_listener = &loop == loops_.front().get();
  std::array<epoll_event, 64> events{};
  std::vector<std::shared_ptr<Socket>> incoming;
  std::vector<std::shared_ptr<Socket>> flushes;
  for (;;) {
    const int n = ::epoll_wait(loop.epfd, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.wake_fd) {
        std::uint64_t v = 0;
        while (::read(loop.wake_fd, &v, sizeof(v)) > 0) {
        }
        // Reset before draining the inbox: a push that misses this drain
        // rearms the eventfd and gets the next one.
        loop.wake_pending.store(false, std::memory_order_release);
        {
          std::lock_guard<std::mutex> lock(loop.inbox_mu);
          incoming.swap(loop.incoming);
          flushes.swap(loop.flushes);
        }
        for (auto& conn : incoming) register_conn(loop, conn);
        incoming.clear();
        for (auto& conn : flushes) pump(loop, conn);
        flushes.clear();
        continue;
      }
      if (owns_listener && fd == listen_fd_) {
        accept_all();
        continue;
      }
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;  // closed earlier this batch
      std::shared_ptr<Socket> conn = it->second;  // close erases the map
      const std::uint32_t ev = events[i].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(loop, conn);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) flush_writes(loop, conn);
      if (conn->fd >= 0 && (ev & EPOLLIN) != 0) handle_readable(loop, conn);
    }
    if (shutdown_loops_.load(std::memory_order_acquire)) {
      while (!loop.conns.empty()) {
        close_conn(loop, loop.conns.begin()->second);
      }
      break;
    }
    // A drain asked for by a signal (on loop 0) or by a Drain RPC runs
    // here; it is idempotent, so the first loop to get here runs it.
    if (core_.draining() && !shutdown_loops_.load() &&
        !graceful_close_.load(std::memory_order_acquire)) {
      if (owns_listener) close_listener();  // stop accepting first
      core_.drain();
      begin_graceful_close();
    }
    if (graceful_close_.load(std::memory_order_acquire)) {
      if (owns_listener) close_listener();
      // Close-out sweep: every connection closes once its last response is
      // flushed. Snapshot the map first -- closing mutates it.
      std::vector<std::shared_ptr<Socket>> all;
      all.reserve(loop.conns.size());
      for (auto& [cfd, c] : loop.conns) all.push_back(c);
      for (auto& c : all) {
        c->close_after_flush = true;
        pump(loop, c);  // also flushes and closes when idle
      }
      if (loop.conns.empty()) break;
    }
  }
  if (owns_listener) close_listener();
}

void PlacementServer::register_conn(EventLoop& loop,
                                    const std::shared_ptr<Socket>& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
    ::close(conn->fd);
    conn->fd = -1;
    conn->close();
    if (connections_active_ != nullptr) connections_active_->add(-1.0);
    return;
  }
  loop.conns.emplace(conn->fd, conn);
  if (graceful_close_.load(std::memory_order_acquire)) {
    conn->close_after_flush = true;  // late arrival during drain
  }
}

void PlacementServer::handle_readable(EventLoop& loop,
                                      const std::shared_ptr<Socket>& conn) {
  std::uint8_t buf[kReadChunk];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      if (bytes_in_ != nullptr) {
        bytes_in_->inc(static_cast<std::uint64_t>(n));
      }
      if (!conn->receive(buf, static_cast<std::size_t>(n))) {
        close_conn(loop, conn);  // malformed bytes
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;  // drained
    } else if (n == 0) {
      close_conn(loop, conn);  // peer closed
      return;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno == EINTR) {
      continue;
    } else {
      close_conn(loop, conn);
      return;
    }
  }
  // One write for the responses this read batch produced: coalesces
  // pipelined responses into one write(2).
  flush_writes(loop, conn);
}

void PlacementServer::pump(EventLoop& loop,
                           const std::shared_ptr<Socket>& conn) {
  if (conn->fd < 0) return;
  conn->collect();
  flush_writes(loop, conn);
}

void PlacementServer::flush_writes(EventLoop& loop,
                                   const std::shared_ptr<Socket>& conn) {
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
        ::epoll_ctl(loop.epfd, EPOLL_CTL_MOD, conn->fd, &ev);
      }
      out.erase(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(conn->write_pos));
      conn->write_pos = 0;
      if (out.size() > kMaxWriteBuffer) {
        close_conn(loop, conn);  // peer is not reading its responses
      }
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      close_conn(loop, conn);
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
    ::epoll_ctl(loop.epfd, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  if (conn->close_after_flush && conn->idle()) close_conn(loop, conn);
}

void PlacementServer::close_conn(EventLoop& loop,
                                 const std::shared_ptr<Socket>& conn) {
  // `conn` may alias the map's own shared_ptr (the shutdown sweep passes
  // `loop.conns.begin()->second` directly); keep a local owner so the
  // erase below cannot destroy the Socket out from under us.
  std::shared_ptr<Socket> keep = conn;
  if (keep->fd < 0) return;
  keep->close();
  ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, keep->fd, nullptr);
  ::close(keep->fd);
  loop.conns.erase(keep->fd);
  keep->fd = -1;
  if (connections_active_ != nullptr) connections_active_->add(-1.0);
}

}  // namespace dvbp::net

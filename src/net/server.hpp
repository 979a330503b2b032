// PlacementServer: the binary-RPC network front-end of the sharded
// placement service (docs/PROTOCOL.md, docs/ARCHITECTURE.md), as a
// socket-free core and one event-loop thread that runs it.
//
// ServerCore holds the service, the tenant gate and its map of booked
// jobs, and the drain state. A Connection is one client's protocol state
// machine over it: bytes in (receive), responses out (output). Decoded
// Arrive/Depart requests are submitted through the service's refusing
// try_arrive/try_depart path; the step that applies the op fires the
// connection's CompletionSink, which appends the encoded response to
// output() -- the completion hookup that makes a response mean "placed",
// not "buffered". Neither starts a thread or takes a lock: one thread
// drives them. A test steps a ShardedCore and reads a Connection's output
// directly.
//
// PlacementServer drives them with one event-loop thread (epoll,
// level-triggered, nonblocking sockets), the only thread that steps the
// service while the server runs. After each epoll_wait wake it accepts,
// reads and submits, steps every shard that has queued ops, and writes
// every connection that got an answer: one wake-up on one thread reads,
// places, commits and answers a request. When accept4 finds no descriptor
// (EMFILE, ENFILE) or no kernel memory, the connection stays queued and
// the level-triggered watch would wake the loop at once for as long as
// the shortage lasts; so the loop stops watching the listen socket for 50
// ms, then tries again. Queued clients wait; none is shed. Each wake
// writes a connection once (EPOLLOUT armed only while the socket is full).
//
// While a server runs, no other thread may call the service's drain(),
// step(), or a blocking arrive()/depart(); after wait() or stop() it may.
// Read-only calls (cost_so_far, jobs_active, ...) are safe at any time.
//
// Admission control / backpressure (never unbounded buffering):
//   * per-connection in-flight window (max_inflight_per_conn): requests
//     beyond it are answered RETRY_LATER immediately;
//   * full shard queue: try_arrive/try_depart refuse, answered RETRY_LATER.
// Both are counted by dvbp.net.backpressure_rejections_total.
//
// Graceful drain (Drain RPC, or a signal wired via install_signal_drain,
// which the loop runs the way it runs a Drain RPC): stop accepting,
// answer new Arrive/Depart with SHUTTING_DOWN, apply every accepted op
// (service drain -- completions fire first, so every accepted request gets
// exactly one response), sync the journals when durability is on, then
// answer the Drain with the final snapshot's packing hash -- or
// INTERNAL_ERROR when the service failed -- and close every connection
// once its responses are flushed.
//
// Metrics (dvbp.net.*): connections_total, connections_active, frames_in/
// out_total, bytes_in/out_total, decode_errors_total, requests_total,
// backpressure_rejections_total, request_latency_ns (receive -> applied).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/sharded_dispatcher.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "tenancy/gate.hpp"

namespace dvbp::net {

/// Thrown on socket-level failures (bind, listen, epoll...).
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back via port().
  std::uint16_t port = 0;
  /// Must be 1: one loop steps the service. (perfbench sets the field.)
  std::size_t event_loops = 1;
  /// Per-connection cap on accepted-but-unanswered Arrive/Depart ops.
  std::size_t max_inflight_per_conn = 1024;
  /// Borrowed, nullable; receives the dvbp.net.* instruments.
  obs::MetricRegistry* metrics = nullptr;
  /// Borrowed, nullable: per-tenant admission gate (docs/TENANCY.md). When
  /// set, every Arrive is gated BEFORE submission -- an over-quota tenant
  /// without credits is answered RETRY_LATER and the op never reaches the
  /// service -- and the booked demand is released when the job departs.
  /// The gate runs in the front-end, before routing, so its decision
  /// sequence is independent of the shard count.
  tenancy::AdmissionGate* gate = nullptr;
};

/// What every connection shares: the service, the gate's bookings and the
/// drain. Driven by one thread (the server's loop); starts no thread.
class ServerCore {
 public:
  /// The service is borrowed and must outlive the core. Reads
  /// max_inflight_per_conn, metrics and gate; throws std::invalid_argument
  /// on a zero in-flight window.
  ServerCore(cloud::ShardedCore& service, const ServerOptions& options);

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// From now on new Arrive/Depart are answered SHUTTING_DOWN.
  /// Async-signal-safe (one atomic store).
  void refuse_new_work() noexcept {
    draining_.store(true, std::memory_order_release);
  }
  bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// The graceful drain, run once (later calls get its answer): refuse new
  /// work, apply every accepted op, snapshot, sync the journals. Answers OK
  /// with the final packing's hash, bins and cost, or INTERNAL_ERROR when
  /// the service failed (a dead journal); the caller fills in id and type.
  Response drain();

 private:
  friend class Connection;

  cloud::ShardedCore& service_;
  std::size_t max_inflight_;
  tenancy::AdmissionGate* gate_;
  std::atomic<bool> draining_{false};  ///< a signal handler may set it

  bool drained_ = false;
  Response drained_answer_;

  /// Gate bookkeeping (gate_ != nullptr only): the tenant and booked
  /// demand of every live job, so a Depart -- possibly on another
  /// connection -- releases exactly what its Arrive booked.
  std::unordered_map<JobId, std::pair<TenantId, double>> tenant_of_job_;

  // Cached instruments (null when metrics are off).
  obs::Counter* frames_in_ = nullptr;
  obs::Counter* frames_out_ = nullptr;
  obs::Counter* decode_errors_ = nullptr;
  obs::Counter* requests_total_ = nullptr;
  obs::Counter* backpressure_ = nullptr;
  obs::Histogram* request_latency_ = nullptr;
};

/// One client's protocol state machine: bytes in, responses out. Its
/// owner feeds receive(), steps the service, and writes output(); a
/// completion appends its answer to output() as the step fires it. Owned
/// through std::shared_ptr: each accepted op holds it as its
/// CompletionSink. Every call comes from the thread that steps the service.
class Connection : public cloud::CompletionSink,
                   public std::enable_shared_from_this<Connection> {
 public:
  explicit Connection(ServerCore& core) : core_(core) {}

  /// Decodes and answers every complete request in the bytes: inline
  /// answers and refusals go to output() at once, an accepted
  /// Arrive/Depart's answer when its op completes. Returns false on
  /// malformed bytes: the connection must close.
  bool receive(const std::uint8_t* data, std::size_t size);

  /// Encoded responses not yet handed to the peer; the driver removes
  /// what it wrote.
  std::vector<std::uint8_t>& output() noexcept { return output_; }

  /// No accepted op awaits its completion.
  bool idle() const noexcept { return pending_.empty(); }

  /// Drops every pending op: a completion that fires later is discarded.
  void close() noexcept { pending_.clear(); }

  void op_applied(std::uint64_t cookie, JobId job) noexcept override;

 protected:
  /// Called after a completion appended its answer to output(): the
  /// server schedules a write.
  virtual void answered() noexcept {}

 private:
  struct Pending {
    MsgType type = MsgType::kPing;
    std::chrono::steady_clock::time_point received{};
  };

  void process(Request req);
  /// Submits an Arrive/Depart; answers it at once unless accepted.
  void submit(Request& req, Response& resp);
  void respond(const Response& resp);

  ServerCore& core_;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> output_;
  /// request_id -> accepted-but-unanswered op: the admission window.
  std::unordered_map<std::uint64_t, Pending> pending_;
};

class PlacementServer {
 public:
  /// Stops the service's own stepping threads (stop_workers), binds,
  /// listens, and starts the event loop, which from then on steps the
  /// service. The service is borrowed and must outlive the server. Throws
  /// NetError when the socket setup fails, std::invalid_argument on bad
  /// options.
  PlacementServer(cloud::ShardedCore& service, ServerOptions options = {});

  /// Hard-stops if still running (stop()), then joins everything.
  ~PlacementServer();

  PlacementServer(const PlacementServer&) = delete;
  PlacementServer& operator=(const PlacementServer&) = delete;

  /// The bound TCP port (resolves option port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Triggers the graceful drain exactly as a Drain RPC would (minus the
  /// response). Async-signal-safe: an atomic store plus an eventfd write
  /// to the loop, which runs the drain.
  void request_drain() noexcept;

  /// Routes `signo` (e.g. SIGTERM, SIGINT) to request_drain() on this
  /// server. At most one PlacementServer per process may install signal
  /// handlers; they stay installed until the process exits.
  void install_signal_drain(int signo);

  /// Blocks until the server has fully stopped: after a graceful drain
  /// completed (every response flushed, every connection closed) or after
  /// stop().
  void wait();

  /// Hard stop: closes every connection, joins the loop, then applies the
  /// ops still queued (their completions find no connection). Unread
  /// client data is lost (use the Drain RPC for a graceful end).
  void stop();

  /// True once a drain has been requested (RPC, signal, request_drain) or
  /// the server was stopped.
  bool draining() const noexcept { return core_.draining(); }

 private:
  struct Socket;

  void loop_run();
  /// Accepts every queued connection; on a descriptor shortage it takes
  /// the listen socket out of the epoll set (see the file comment).
  void accept_all();
  void handle_readable(const std::shared_ptr<Socket>& conn);
  /// Writes what `conn` has buffered; closes it once flushed and idle
  /// after a graceful close began.
  void flush_writes(const std::shared_ptr<Socket>& conn);
  void close_conn(const std::shared_ptr<Socket>& conn);
  void notify() noexcept;
  void close_listener() noexcept;
  /// The listen socket, the epoll set and the eventfd.
  void close_fds() noexcept;
  void join_loop();

  cloud::ShardedCore& service_;
  ServerCore core_;
  int listen_fd_ = -1;  ///< the loop's once it runs
  std::uint16_t port_ = 0;
  int epfd_ = -1;
  int wake_fd_ = -1;  ///< request_drain() and stop() wake the loop here

  // Loop-thread-only.
  std::unordered_map<int, std::shared_ptr<Socket>> conns_;
  /// Connections with output to write at the end of this wake.
  std::vector<std::shared_ptr<Socket>> to_flush_;
  /// Set while accepting is paused, to when it resumes.
  std::optional<std::chrono::steady_clock::time_point> accept_resume_at_;
  bool graceful_close_ = false;  ///< close conns once flushed

  std::atomic<bool> shutdown_loop_{false};  ///< loop closes conns and exits
  std::atomic<bool> stopped_{false};

  std::mutex join_mu_;  ///< makes wait()/stop() joins safe to race

  // Cached instruments (null when metrics are off).
  obs::Counter* connections_total_ = nullptr;
  obs::Gauge* connections_active_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;

  std::thread loop_;  ///< last: it uses every member above
};

}  // namespace dvbp::net

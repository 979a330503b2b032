// PlacementServer: the binary-RPC network front-end of the sharded
// placement service (docs/PROTOCOL.md, docs/ARCHITECTURE.md), as a
// socket-free core and a threaded driver.
//
// ServerCore holds the service, the tenant gate and its map of booked
// jobs, and the drain state. A Connection is one client's protocol state
// machine over it: bytes in (receive), responses out (output). Decoded
// Arrive/Depart requests are submitted through the service's refusing
// try_arrive/try_depart path; the stepping thread fires the connection's
// CompletionSink once the op is applied, which stages the encoded
// response for collect() -- the completion hookup that makes a response
// mean "placed", not "buffered". Neither starts a thread: a test steps a
// ShardedCore and reads a Connection's output directly.
//
// PlacementServer drives them with N event-loop threads (epoll,
// level-triggered, nonblocking sockets). Loop 0 owns the listen socket,
// accepts, and round-robins connections across the loops. A completion
// wakes its connection's loop via eventfd; each loop writes once per read
// batch (EPOLLOUT armed only while the socket is full).
//
// Admission control / backpressure (never unbounded buffering):
//   * per-connection in-flight window (max_inflight_per_conn): requests
//     beyond it are answered RETRY_LATER immediately;
//   * full shard queue: try_arrive/try_depart refuse, answered RETRY_LATER.
// Both are counted by dvbp.net.backpressure_rejections_total.
//
// Graceful drain (Drain RPC, or a signal wired via install_signal_drain,
// which loop 0 runs the way a loop runs a Drain RPC): stop accepting,
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
#include <stdexcept>
#include <string>
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
/// drain. Thread-safe; starts no thread.
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

  /// The graceful drain, run once (later callers wait for the first and
  /// get its answer): refuse new work, apply every accepted op, snapshot,
  /// sync the journals. Answers OK with the final packing's hash, bins and
  /// cost, or INTERNAL_ERROR when the service failed (a dead journal);
  /// the caller fills in id and type.
  Response drain();

 private:
  friend class Connection;

  cloud::ShardedCore& service_;
  std::size_t max_inflight_;
  tenancy::AdmissionGate* gate_;
  std::atomic<bool> draining_{false};

  std::mutex drain_mu_;  ///< serializes drain(); guards the two below
  bool drained_ = false;
  Response drained_answer_;

  /// Gate bookkeeping (gate_ != nullptr only): the tenant and booked
  /// demand of every live job, so a Depart -- possibly on another
  /// connection -- releases exactly what its Arrive booked.
  std::mutex tenant_mu_;
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
/// driver feeds receive() and writes output(); the completions a step
/// fires are staged until collect() moves them to output(). Owned through
/// std::shared_ptr: each accepted op holds it as its CompletionSink.
class Connection : public cloud::CompletionSink,
                   public std::enable_shared_from_this<Connection> {
 public:
  explicit Connection(ServerCore& core) : core_(core) {}

  /// Decodes and answers every complete request in the bytes: inline
  /// answers and refusals go to output() at once, an accepted
  /// Arrive/Depart's answer when its op completes. Returns false on
  /// malformed bytes: the connection must close. Driver thread only.
  bool receive(const std::uint8_t* data, std::size_t size);

  /// Moves the responses completions staged into output(). Driver thread
  /// only.
  void collect();

  /// Encoded responses not yet handed to the peer; the driver removes
  /// what it wrote.
  std::vector<std::uint8_t>& output() noexcept { return output_; }

  /// No accepted op awaits its completion and none is staged.
  bool idle();

  /// Drops every pending op: a completion that fires later is discarded.
  void close() noexcept;

  void op_applied(std::uint64_t cookie, JobId job) noexcept override;

 protected:
  /// Called on the stepping thread, with no lock held, after a completion
  /// was staged: the driver schedules a collect().
  virtual void staged() noexcept {}

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

  // Shared with stepping threads, guarded by `mu_`.
  std::mutex mu_;
  bool closed_ = false;
  std::vector<std::uint8_t> staged_;
  std::uint64_t staged_frames_ = 0;
  /// request_id -> in-flight op (entered *before* submission: the
  /// completion can fire before try_arrive/try_depart even returns).
  std::unordered_map<std::uint64_t, Pending> pending_;

  /// Accepted-but-unanswered ops (admission window).
  std::atomic<std::size_t> inflight_{0};
};

class PlacementServer {
 public:
  /// Binds, listens, and starts the event-loop threads. The service is
  /// borrowed and must outlive the server. Throws NetError when the socket
  /// setup fails, std::invalid_argument on bad options.
  PlacementServer(cloud::ShardedDispatcher& service,
                  ServerOptions options = {});

  /// Hard-stops if still running (stop()), then joins everything.
  ~PlacementServer();

  PlacementServer(const PlacementServer&) = delete;
  PlacementServer& operator=(const PlacementServer&) = delete;

  /// The bound TCP port (resolves option port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Triggers the graceful drain exactly as a Drain RPC would (minus the
  /// response). Async-signal-safe: an atomic store plus an eventfd write
  /// to loop 0, which runs the drain.
  void request_drain() noexcept;

  /// Routes `signo` (e.g. SIGTERM, SIGINT) to request_drain() on this
  /// server. At most one PlacementServer per process may install signal
  /// handlers; they stay installed until the process exits.
  void install_signal_drain(int signo);

  /// Blocks until the server has fully stopped: after a graceful drain
  /// completed (every response flushed, every connection closed) or after
  /// stop().
  void wait();

  /// Hard stop: stops the loops, waits for in-flight ops to apply so no
  /// completion can fire into a destroyed connection, then closes
  /// everything. Unread client data is lost (use the Drain RPC for a
  /// graceful end).
  void stop();

  /// True once a drain has been requested (RPC, signal, request_drain) or
  /// the server was stopped.
  bool draining() const noexcept { return core_.draining(); }

 private:
  struct EventLoop;
  struct Socket;

  void loop_run(EventLoop& loop);
  void accept_all();
  void register_conn(EventLoop& loop, const std::shared_ptr<Socket>& conn);
  void handle_readable(EventLoop& loop, const std::shared_ptr<Socket>& conn);
  void pump(EventLoop& loop, const std::shared_ptr<Socket>& conn);
  void flush_writes(EventLoop& loop, const std::shared_ptr<Socket>& conn);
  void close_conn(EventLoop& loop, const std::shared_ptr<Socket>& conn);
  /// Flags every loop to close its connections once flushed (idempotent).
  void begin_graceful_close();
  void close_listener() noexcept;
  void join_threads();

  cloud::ShardedDispatcher& service_;
  ServerCore core_;
  int listen_fd_ = -1;  ///< loop 0's once the loops run
  std::uint16_t port_ = 0;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::size_t next_loop_ = 0;  ///< loop 0 only

  std::atomic<bool> graceful_close_{false};  ///< close conns once flushed
  std::atomic<bool> shutdown_loops_{false};  ///< loops close conns and exit
  std::atomic<bool> stopped_{false};

  std::mutex join_mu_;  ///< makes wait()/stop() joins safe to race

  // Cached instruments (null when metrics are off).
  obs::Counter* connections_total_ = nullptr;
  obs::Gauge* connections_active_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
};

}  // namespace dvbp::net

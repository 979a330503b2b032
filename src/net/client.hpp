// Blocking, pipelining client for the placement server (docs/PROTOCOL.md).
//
// Two usage styles:
//   * Synchronous: arrive()/depart()/query()/snapshot()/drain()/ping() send
//     one request, flush, and block for its response. They require an empty
//     pipeline (no outstanding pipelined requests) because responses to
//     Arrive/Depart are delivered in *completion* order, not send order.
//   * Pipelined: send_*() stamp a fresh request id and buffer the frame
//     (auto-flushing past a threshold); flush() pushes the buffer out;
//     recv_response() waits for the next response frame, whatever request
//     it answers, with no limit or until a deadline. The caller matches
//     responses to requests by id. The load generator keeps a window in
//     flight this way, and its open loop waits for a response only until
//     shortly before its next request falls due.
//
// Thread-safety: none; one thread owns a Client.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/rvec.hpp"
#include "core/types.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"  // NetError

namespace dvbp::net {

class Client {
 public:
  /// Resolves `host` (name or literal IP) and connects; throws NetError on
  /// failure. The socket is blocking with TCP_NODELAY.
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- Pipelined interface --------------------------------------------

  /// Buffer an Arrive; returns its request id. A tenant other than
  /// kNoTenant labels the arrival for the server-side admission gate.
  std::uint64_t send_arrive(Time now, const RVec& size,
                            Time expected_departure =
                                std::numeric_limits<Time>::infinity(),
                            TenantId tenant = kNoTenant);
  std::uint64_t send_depart(Time now, std::uint64_t job);
  std::uint64_t send_query(Time now);
  std::uint64_t send_snapshot();
  std::uint64_t send_drain();
  std::uint64_t send_ping();

  /// Writes every buffered frame to the socket (blocking).
  void flush();

  /// Blocks for the next response frame. Throws NetError when the server
  /// closed the connection, FrameError on corrupt bytes.
  Response recv_response();
  /// Same, but gives up at `deadline` and returns std::nullopt; a deadline
  /// already past checks for a response without blocking.
  std::optional<Response> recv_response(
      std::chrono::steady_clock::time_point deadline);

  // --- Synchronous conveniences (empty pipeline required) -------------

  Response arrive(Time now, const RVec& size,
                  Time expected_departure =
                      std::numeric_limits<Time>::infinity(),
                  TenantId tenant = kNoTenant);
  Response depart(Time now, std::uint64_t job);
  Response query(Time now);
  Response snapshot();
  Response drain();
  Response ping();

  /// Closes the socket; every later call throws NetError.
  void close() noexcept;
  bool connected() const noexcept { return fd_ >= 0; }

 private:
  std::uint64_t stamp(Request& req);
  void require_empty_pipeline(const char* caller) const;
  Response roundtrip();  // flush, then the response

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::uint64_t outstanding_ = 0;  // requests sent, responses not yet read
  std::vector<std::uint8_t> send_buf_;
  FrameDecoder decoder_;
};

}  // namespace dvbp::net

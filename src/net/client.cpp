#include "net/client.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace dvbp::net {

namespace {

/// Auto-flush threshold: bounds client-side buffering under pipelining
/// while still coalescing small frames into few write(2) calls.
constexpr std::size_t kSendBufFlush = 64 * 1024;

constexpr std::size_t kRecvChunk = 64 * 1024;

std::string errno_str(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0) {
    throw NetError("getaddrinfo(" + host + "): " + ::gai_strerror(rc));
  }
  std::string last_error = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                            ai->ai_protocol);
    if (fd < 0) {
      last_error = errno_str("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      break;
    }
    last_error = errno_str("connect");
    ::close(fd);
  }
  ::freeaddrinfo(res);
  if (fd_ < 0) {
    throw NetError("Client: cannot connect to " + host + ":" + port_str +
                   " (" + last_error + ")");
  }
}

Client::~Client() { close(); }

void Client::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t Client::stamp(Request& req) {
  if (fd_ < 0) throw NetError("Client: connection is closed");
  req.id = next_id_++;
  encode_request(req, send_buf_);
  ++outstanding_;
  if (send_buf_.size() >= kSendBufFlush) flush();
  return req.id;
}

std::uint64_t Client::send_arrive(Time now, const RVec& size,
                                  Time expected_departure,
                                  TenantId tenant) {
  Request req;
  req.type = MsgType::kArrive;
  req.time = now;
  req.expected_departure = expected_departure;
  req.size = size;
  req.tenant = tenant;
  return stamp(req);
}

std::uint64_t Client::send_depart(Time now, std::uint64_t job) {
  Request req;
  req.type = MsgType::kDepart;
  req.time = now;
  req.job = job;
  return stamp(req);
}

std::uint64_t Client::send_query(Time now) {
  Request req;
  req.type = MsgType::kQuery;
  req.time = now;
  return stamp(req);
}

std::uint64_t Client::send_snapshot() {
  Request req;
  req.type = MsgType::kSnapshot;
  return stamp(req);
}

std::uint64_t Client::send_drain() {
  Request req;
  req.type = MsgType::kDrain;
  return stamp(req);
}

std::uint64_t Client::send_ping() {
  Request req;
  req.type = MsgType::kPing;
  return stamp(req);
}

void Client::flush() {
  if (fd_ < 0) throw NetError("Client: connection is closed");
  std::size_t pos = 0;
  while (pos < send_buf_.size()) {
    const ssize_t n =
        ::write(fd_, send_buf_.data() + pos, send_buf_.size() - pos);
    if (n > 0) {
      pos += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      close();
      throw NetError(errno_str("Client: write"));
    }
  }
  send_buf_.clear();
}

Response Client::recv_response() {
  return *recv_response(std::chrono::steady_clock::time_point::max());
}

std::optional<Response> Client::recv_response(
    std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  if (fd_ < 0) throw NetError("Client: connection is closed");
  std::uint8_t buf[kRecvChunk];
  for (;;) {
    if (auto payload = decoder_.next(); payload.has_value()) {
      const Response resp =
          decode_response(payload->data(), payload->size());
      --outstanding_;
      return resp;
    }
    if (deadline != Clock::time_point::max()) {
      const std::int64_t left = std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                 deadline - Clock::now())
                 .count());
      const timespec timeout{left / 1'000'000'000, left % 1'000'000'000};
      pollfd readable{fd_, POLLIN, 0};
      const int ready = ::ppoll(&readable, 1, &timeout, nullptr);
      if (ready == 0) return std::nullopt;
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) {
        close();
        throw NetError(errno_str("Client: poll"));
      }
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      close();
      throw NetError("Client: server closed the connection");
    } else if (errno == EINTR) {
      continue;
    } else {
      close();
      throw NetError(errno_str("Client: read"));
    }
  }
}

void Client::require_empty_pipeline(const char* caller) const {
  if (outstanding_ != 0) {
    throw std::logic_error(
        std::string("Client::") + caller +
        ": pipelined requests outstanding (responses arrive in completion "
        "order; use recv_response to drain them first)");
  }
}

Response Client::roundtrip() {
  flush();
  return recv_response();
}

Response Client::arrive(Time now, const RVec& size, Time expected_departure,
                        TenantId tenant) {
  require_empty_pipeline("arrive");
  send_arrive(now, size, expected_departure, tenant);
  return roundtrip();
}

Response Client::depart(Time now, std::uint64_t job) {
  require_empty_pipeline("depart");
  send_depart(now, job);
  return roundtrip();
}

Response Client::query(Time now) {
  require_empty_pipeline("query");
  send_query(now);
  return roundtrip();
}

Response Client::snapshot() {
  require_empty_pipeline("snapshot");
  send_snapshot();
  return roundtrip();
}

Response Client::drain() {
  require_empty_pipeline("drain");
  send_drain();
  return roundtrip();
}

Response Client::ping() {
  require_empty_pipeline("ping");
  send_ping();
  return roundtrip();
}

}  // namespace dvbp::net

// End-to-end tests of the binary-RPC placement server over real loopback
// sockets: every RPC type, packing-hash parity against an in-process
// ShardedDispatcher fed the identical sequence and against socket-free
// connections over a thread-free ShardedCore, deterministic backpressure
// (RETRY_LATER) via a deliberately slow policy, duplicate-id rejection,
// the malformed-bytes -> close-connection path, the graceful-drain
// guarantee that every accepted request gets exactly one response and the
// final hash matches the in-process run, and a dead journal answering
// INTERNAL_ERROR, to its ops and to a drain.
#include "net/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/sharded_dispatcher.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "persist/fault.hpp"

namespace dvbp::net {
namespace {

using namespace std::chrono_literals;

cloud::ShardedOptions service_options(std::size_t shards,
                                      obs::MetricRegistry* metrics = nullptr,
                                      std::size_t queue_capacity = 4096) {
  cloud::ShardedOptions opts;
  opts.shards = shards;
  opts.router = cloud::RouterKind::kRoundRobin;
  opts.queue_capacity = queue_capacity;
  opts.metrics = metrics;
  return opts;
}

cloud::ShardedDispatcher::PolicyFactory first_fit_factory() {
  return [](std::size_t) { return make_policy("FirstFit"); };
}

/// Delegating policy that sleeps inside every placement decision: makes
/// shard queues back up on demand so the RETRY_LATER paths are exercised
/// deterministically instead of by racing the (fast) real policies.
class SlowPolicy final : public Policy {
 public:
  SlowPolicy(PolicyPtr inner, std::chrono::milliseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}

  std::string_view name() const noexcept override { return "SlowFirstFit"; }
  bool is_clairvoyant() const noexcept override {
    return inner_->is_clairvoyant();
  }
  BinId select_bin(Time now, const Item& item,
                   std::span<const BinView> open_bins,
                   const OpenBinTable& table) override {
    std::this_thread::sleep_for(delay_);
    return inner_->select_bin(now, item, open_bins, table);
  }
  void on_open(Time now, BinId bin, const Item& first) override {
    inner_->on_open(now, bin, first);
  }
  void on_pack(Time now, BinId bin, const Item& item) override {
    inner_->on_pack(now, bin, item);
  }
  void on_depart(Time now, BinId bin, const Item& item,
                 bool closed) override {
    inner_->on_depart(now, bin, item, closed);
  }
  void reset() override { inner_->reset(); }
  void save_state(serial::Writer& out) const override {
    inner_->save_state(out);
  }
  void restore_state(serial::Reader& in) override {
    inner_->restore_state(in);
  }

 private:
  PolicyPtr inner_;
  std::chrono::milliseconds delay_;
};

RVec size2(double a, double b) {
  RVec v(2);
  v[0] = a;
  v[1] = b;
  return v;
}

/// Threads of this process: /proc/self/task holds one entry per thread.
std::size_t task_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(
      std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

/// Snapshot needs quiescence; the window between the last completion and
/// the applied-ops counter is tiny but real, so retry briefly.
Response snapshot_retry(Client& client) {
  for (int i = 0; i < 400; ++i) {
    const Response resp = client.snapshot();
    if (resp.status != Status::kNotQuiescent) return resp;
    std::this_thread::sleep_for(2ms);
  }
  ADD_FAILURE() << "snapshot never became quiescent";
  return Response{};
}

/// Raw loopback socket for tests that need to send bytes the Client
/// refuses to produce (duplicate ids, garbage).
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw NetError("raw socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      ::close(fd_);
      fd_ = -1;
      throw NetError("raw connect() failed");
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Blocks for one response frame.
  Response recv_one() {
    std::uint8_t chunk[4096];
    while (true) {
      if (auto payload = decoder_.next()) {
        return decode_response(payload->data(), payload->size());
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        throw NetError("raw connection closed");
      }
      decoder_.feed(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the server closed the connection (EOF) within ~2s.
  bool closed_by_peer() {
    std::uint8_t chunk[256];
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n == 0) return true;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        std::this_thread::sleep_for(5ms);
        continue;
      }
      if (n < 0) return true;  // RST counts as closed
      // Data (late responses) is fine; keep reading until EOF.
    }
    return false;
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

TEST(NetServer, AllRpcTypesOverLoopback) {
  obs::MetricRegistry metrics;
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(2, &metrics));
  ServerOptions opts;
  opts.metrics = &metrics;
  PlacementServer server(service, opts);
  ASSERT_GT(server.port(), 0);

  Client client("127.0.0.1", server.port());

  const Response pong = client.ping();
  EXPECT_EQ(pong.status, Status::kOk);
  EXPECT_EQ(pong.type, MsgType::kPing);

  const Response placed = client.arrive(1.0, size2(0.4, 0.3), 10.0);
  ASSERT_EQ(placed.status, Status::kOk);
  EXPECT_EQ(placed.type, MsgType::kArrive);

  // The completion fired before the response, so the op is applied and the
  // query must see it.
  const Response q1 = client.query(1.5);
  ASSERT_EQ(q1.status, Status::kOk);
  EXPECT_EQ(q1.jobs_active, 1u);
  EXPECT_EQ(q1.jobs_admitted, 1u);
  EXPECT_EQ(q1.open_bins, 1u);

  // Departing an unknown job is a typed error, not a closed connection.
  const Response bad = client.depart(2.0, placed.job + 999);
  EXPECT_EQ(bad.status, Status::kUnknownJob);

  const Response departed = client.depart(2.0, placed.job);
  ASSERT_EQ(departed.status, Status::kOk);
  const Response q2 = client.query(2.5);
  ASSERT_EQ(q2.status, Status::kOk);
  EXPECT_EQ(q2.jobs_active, 0u);

  // Double-depart: the job is gone now.
  const Response dd = client.depart(3.0, placed.job);
  EXPECT_EQ(dd.status, Status::kUnknownJob);

  const Response snap = snapshot_retry(client);
  ASSERT_EQ(snap.status, Status::kOk);
  EXPECT_EQ(snap.type, MsgType::kSnapshot);
  EXPECT_EQ(snap.num_bins, 1u);  // one bin was opened over the run
  EXPECT_NE(snap.packing_hash, 0u);

  // Oversized arrive -> BAD_REQUEST, connection stays usable.
  const Response too_big = client.arrive(4.0, size2(1.5, 0.1));
  EXPECT_EQ(too_big.status, Status::kBadRequest);
  EXPECT_EQ(client.ping().status, Status::kOk);

  client.close();
  server.stop();

  EXPECT_GE(metrics.counter("dvbp.net.connections_total").value(), 1u);
  EXPECT_GE(metrics.counter("dvbp.net.requests_total").value(), 8u);
  EXPECT_GT(metrics.counter("dvbp.net.frames_in_total").value(), 0u);
  EXPECT_GT(metrics.counter("dvbp.net.frames_out_total").value(), 0u);
  EXPECT_GT(metrics.counter("dvbp.net.bytes_in_total").value(), 0u);
  EXPECT_GT(metrics.counter("dvbp.net.bytes_out_total").value(), 0u);
}

// The wire adds nothing and loses nothing: the same arrive/depart sequence
// through sockets (three event loops, four connections), through four
// socket-free connections over a thread-free core, and through an
// in-process ShardedDispatcher must end in bit-identical packings, and the
// two protocol legs must answer every request alike.
TEST(NetServer, PackingHashParityWithInProcessService) {
  constexpr std::size_t kShards = 2;
  constexpr int kOps = 300;
  constexpr std::size_t kConns = 4;

  // Generate one deterministic mixed sequence.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> coord(0.05, 0.6);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  struct OpSpec {
    bool depart;
    double a, b;        // arrive size
    std::size_t victim;  // index into live jobs at execution time
  };
  std::vector<OpSpec> script;
  int live_estimate = 0;
  for (int i = 0; i < kOps; ++i) {
    const bool depart = coin(rng) < 0.35 && live_estimate > 0;
    OpSpec spec{depart, coord(rng), coord(rng), 0};
    if (depart) {
      spec.victim = static_cast<std::size_t>(rng() %
                                             static_cast<std::uint64_t>(
                                                 live_estimate));
      --live_estimate;
    } else {
      ++live_estimate;
    }
    script.push_back(spec);
  }

  // Plays the script, op i on connection i % kConns, through `call`
  // (connection, request) -> response; returns each answer's (id, status,
  // job) and the Drain's answer, sent on connection 0.
  struct Answer {
    std::uint64_t id;
    Status status;
    std::uint64_t job;
    bool operator==(const Answer&) const = default;
  };
  const auto play = [&](const auto& call, std::vector<Answer>& answers) {
    std::vector<std::uint64_t> live;
    double t = 0.0;
    for (std::size_t i = 0; i < script.size(); ++i) {
      const OpSpec& spec = script[i];
      t += 0.01;
      Request req;
      req.time = t;
      if (spec.depart) {
        req.type = MsgType::kDepart;
        req.job = live[spec.victim];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(spec.victim));
      } else {
        req.type = MsgType::kArrive;
        req.size = size2(spec.a, spec.b);
      }
      const Response resp = call(i % kConns, req);
      EXPECT_EQ(resp.status, Status::kOk) << "op " << i;
      if (!spec.depart) live.push_back(resp.job);
      answers.push_back({resp.id, resp.status, resp.job});
    }
    Request drain;
    drain.type = MsgType::kDrain;
    return call(0, drain);
  };

  // Over the wire.
  std::vector<Answer> wire_answers;
  Response wire_drain;
  {
    cloud::ShardedDispatcher service(2, first_fit_factory(),
                                     service_options(kShards));
    ServerOptions opts;
    opts.event_loops = 3;
    PlacementServer server(service, opts);
    std::vector<std::unique_ptr<Client>> clients;
    for (std::size_t c = 0; c < kConns; ++c) {
      clients.push_back(std::make_unique<Client>("127.0.0.1", server.port()));
    }
    wire_drain = play(
        [&](std::size_t c, const Request& req) {
          Client& client = *clients[c];
          switch (req.type) {
            case MsgType::kArrive:
              return client.arrive(req.time, req.size);
            case MsgType::kDepart:
              return client.depart(req.time, req.job);
            default:
              return client.drain();
          }
        },
        wire_answers);
    ASSERT_EQ(wire_drain.status, Status::kOk);
    server.wait();  // drain closes everything down
  }

  // Socket-free and thread-free: one request in, both shards stepped, its
  // answer out.
  std::vector<Answer> core_answers;
  Response core_drain;
  {
    const std::size_t tasks_before = task_count();
    cloud::ShardedCore service(2, first_fit_factory(),
                               service_options(kShards));
    ServerCore core(service, ServerOptions{});
    std::vector<std::shared_ptr<Connection>> conns;
    std::vector<std::uint64_t> next_id(kConns, 1);  // as each Client numbers
    for (std::size_t c = 0; c < kConns; ++c) {
      conns.push_back(std::make_shared<Connection>(core));
    }
    core_drain = play(
        [&](std::size_t c, Request req) {
          req.id = next_id[c]++;
          std::vector<std::uint8_t> bytes;
          encode_request(req, bytes);
          EXPECT_TRUE(conns[c]->receive(bytes.data(), bytes.size()));
          for (std::size_t s = 0; s < kShards; ++s) service.step(s);
          conns[c]->collect();
          FrameDecoder decoder;
          decoder.feed(conns[c]->output().data(), conns[c]->output().size());
          conns[c]->output().clear();
          const auto payload = decoder.next();
          if (!payload.has_value() || decoder.next().has_value()) {
            ADD_FAILURE() << "request " << req.id << " on connection " << c
                          << " did not get exactly one answer";
            return Response{};
          }
          return decode_response(payload->data(), payload->size());
        },
        core_answers);
    EXPECT_EQ(task_count(), tasks_before) << "the core started a thread";
  }
  EXPECT_EQ(core_answers, wire_answers);
  EXPECT_EQ(core_drain.status, Status::kOk);
  EXPECT_EQ(core_drain.packing_hash, wire_drain.packing_hash);
  EXPECT_EQ(core_drain.num_bins, wire_drain.num_bins);
  EXPECT_DOUBLE_EQ(core_drain.cost, wire_drain.cost);

  // In process.
  cloud::ShardedDispatcher local(2, first_fit_factory(),
                                 service_options(kShards));
  std::vector<JobId> live;
  double t = 0.0;
  for (const OpSpec& spec : script) {
    t += 0.01;
    if (spec.depart) {
      const JobId job = live[spec.victim];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(spec.victim));
      local.depart(t, job);
    } else {
      live.push_back(local.arrive(t, size2(spec.a, spec.b)));
    }
  }
  local.drain();
  const Packing packing = local.snapshot();

  EXPECT_EQ(wire_drain.packing_hash, packing_hash(packing));
  EXPECT_EQ(wire_drain.num_bins, packing.num_bins());
  EXPECT_DOUBLE_EQ(wire_drain.cost, packing.cost());
}

// Backpressure: a slow policy plus a tiny shard queue and in-flight window
// forces RETRY_LATER. Every request still gets exactly one response, and
// accepted + rejected adds up.
TEST(NetServer, BackpressureYieldsRetryLater) {
  obs::MetricRegistry metrics;
  cloud::ShardedOptions sopts =
      service_options(1, &metrics, /*queue_capacity=*/2);
  cloud::ShardedDispatcher service(
      2,
      [](std::size_t) {
        return PolicyPtr(new SlowPolicy(make_policy("FirstFit"), 15ms));
      },
      sopts);
  ServerOptions opts;
  opts.metrics = &metrics;
  opts.max_inflight_per_conn = 4;
  PlacementServer server(service, opts);
  Client client("127.0.0.1", server.port());

  constexpr int kBurst = 20;
  std::map<std::uint64_t, int> responses;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    ids.push_back(client.send_arrive(1.0 + i * 0.001, size2(0.1, 0.1)));
  }
  client.flush();

  std::uint64_t ok = 0, retry = 0;
  for (int i = 0; i < kBurst; ++i) {
    const Response resp = client.recv_response();
    ++responses[resp.id];
    if (resp.status == Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status, Status::kRetryLater);
      ++retry;
    }
  }
  EXPECT_EQ(ok + retry, static_cast<std::uint64_t>(kBurst));
  EXPECT_GE(retry, 1u) << "tiny queue + slow policy must reject something";
  EXPECT_GE(ok, 1u);
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(responses[id], 1) << "request " << id;
  }
  EXPECT_GE(metrics.counter("dvbp.net.backpressure_rejections_total").value(),
            retry);

  client.close();
  server.stop();
}

// Two in-flight requests sharing an id are indistinguishable to the
// response matcher, so the second is refused outright.
TEST(NetServer, DuplicateRequestIdIsBadRequest) {
  cloud::ShardedDispatcher service(
      2,
      [](std::size_t) {
        return PolicyPtr(new SlowPolicy(make_policy("FirstFit"), 50ms));
      },
      service_options(1));
  PlacementServer server(service);

  RawConn raw(server.port());
  Request req;
  req.id = 7;
  req.type = MsgType::kArrive;
  req.time = 1.0;
  req.size = size2(0.2, 0.2);
  std::vector<std::uint8_t> bytes;
  encode_request(req, bytes);   // id 7, once
  encode_request(req, bytes);   // id 7, again, while the first is pending
  raw.send_bytes(bytes);

  const Response r1 = raw.recv_one();
  const Response r2 = raw.recv_one();
  EXPECT_EQ(r1.id, 7u);
  EXPECT_EQ(r2.id, 7u);
  // The duplicate bounces immediately; the original still applies.
  const bool dup_then_ok = r1.status == Status::kBadRequest &&
                           r2.status == Status::kOk;
  const bool ok_then_dup = r1.status == Status::kOk &&
                           r2.status == Status::kBadRequest;
  EXPECT_TRUE(dup_then_ok || ok_then_dup)
      << status_name(r1.status) << " / " << status_name(r2.status);

  server.stop();
}

// Corrupt bytes sever exactly the offending connection; the server keeps
// serving fresh ones and counts the decode error.
TEST(NetServer, MalformedBytesCloseOnlyThatConnection) {
  obs::MetricRegistry metrics;
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(1, &metrics));
  ServerOptions opts;
  opts.metrics = &metrics;
  PlacementServer server(service, opts);

  // An implausible length header: rejected before any payload arrives.
  {
    RawConn raw(server.port());
    raw.send_bytes({0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00});
    EXPECT_TRUE(raw.closed_by_peer());
  }
  // A CRC-corrupt ping.
  {
    RawConn raw(server.port());
    Request ping;
    ping.id = 1;
    ping.type = MsgType::kPing;
    std::vector<std::uint8_t> bytes;
    encode_request(ping, bytes);
    bytes.back() ^= 0x40;
    raw.send_bytes(bytes);
    EXPECT_TRUE(raw.closed_by_peer());
  }
  EXPECT_GE(metrics.counter("dvbp.net.decode_errors_total").value(), 2u);

  // The server is still alive for well-behaved clients.
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.ping().status, Status::kOk);
  EXPECT_EQ(client.arrive(1.0, size2(0.3, 0.3)).status, Status::kOk);

  client.close();
  server.stop();
}

// Graceful drain under a pipelined backlog: every accepted request gets
// exactly one response, the Drain answer carries the final packing hash,
// and that hash matches an in-process run of the same accepted sequence.
TEST(NetServer, GracefulDrainAnswersEverythingWithFinalHash) {
  constexpr std::size_t kShards = 2;
  constexpr int kArrives = 250;

  std::vector<std::pair<double, double>> sizes;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> coord(0.05, 0.5);
  for (int i = 0; i < kArrives; ++i) {
    sizes.emplace_back(coord(rng), coord(rng));
  }

  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(kShards));
  PlacementServer server(service);
  Client client("127.0.0.1", server.port());

  // Pipeline the whole backlog, then the drain, in one burst.
  std::map<std::uint64_t, int> responses;
  std::vector<std::uint64_t> ids;
  double t = 0.0;
  for (const auto& [a, b] : sizes) {
    t += 0.01;
    ids.push_back(client.send_arrive(t, size2(a, b)));
  }
  const std::uint64_t drain_id = client.send_drain();
  ids.push_back(drain_id);
  client.flush();

  std::uint64_t drain_hash = 0, drain_bins = 0;
  int ok_arrives = 0;
  for (int i = 0; i < kArrives + 1; ++i) {
    const Response resp = client.recv_response();
    ++responses[resp.id];
    if (resp.id == drain_id) {
      ASSERT_EQ(resp.status, Status::kOk);
      drain_hash = resp.packing_hash;
      drain_bins = resp.num_bins;
    } else {
      // Everything was submitted before the Drain on the same connection,
      // so it all got in ahead of the shutdown gate.
      ASSERT_EQ(resp.status, Status::kOk);
      ++ok_arrives;
    }
  }
  EXPECT_EQ(ok_arrives, kArrives);
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(responses[id], 1) << "request " << id;
  }
  // After the drain response the server closes the connection.
  EXPECT_THROW(client.recv_response(), NetError);
  server.wait();
  EXPECT_TRUE(server.draining());

  // The same arrivals in process must reproduce the hash.
  cloud::ShardedDispatcher local(2, first_fit_factory(),
                                 service_options(kShards));
  double lt = 0.0;
  for (const auto& [a, b] : sizes) {
    lt += 0.01;
    local.arrive(lt, size2(a, b));
  }
  local.drain();
  const Packing packing = local.snapshot();
  EXPECT_EQ(drain_hash, packing_hash(packing));
  EXPECT_EQ(drain_bins, packing.num_bins());
}

// request_drain() is the signal-handler entry point; route a real SIGTERM
// through install_signal_drain and watch the server wind itself down.
TEST(NetServer, SignalTriggersGracefulDrain) {
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(2));
  PlacementServer server(service);
  server.install_signal_drain(SIGTERM);

  Client client("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(client.arrive(1.0 + i, size2(0.2, 0.2)).status, Status::kOk);
  }

  ASSERT_EQ(std::raise(SIGTERM), 0);
  server.wait();
  EXPECT_TRUE(server.draining());

  // Post-drain the service is quiescent with all five jobs applied:
  // round-robin puts 3 jobs on shard 0 and 2 on shard 1, one bin each.
  EXPECT_EQ(service.jobs_admitted(), 5u);
  EXPECT_EQ(service.snapshot().num_bins(), 2u);
}

// New connections arriving while draining are refused (accept stops), and
// in-flight connections get SHUTTING_DOWN for new work.
TEST(NetServer, DrainingRefusesNewWork) {
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(1));
  PlacementServer server(service);
  Client client("127.0.0.1", server.port());
  ASSERT_EQ(client.arrive(1.0, size2(0.2, 0.2)).status, Status::kOk);

  server.request_drain();
  // The drain races our next request; keep sending until the gate is seen
  // or the server closes the connection (both are acceptable ends).
  bool saw_shutting_down = false;
  try {
    for (int i = 0; i < 200; ++i) {
      const Response resp = client.arrive(2.0 + i * 0.01, size2(0.1, 0.1));
      if (resp.status == Status::kShuttingDown) {
        saw_shutting_down = true;
        break;
      }
      ASSERT_EQ(resp.status, Status::kOk);
      std::this_thread::sleep_for(1ms);
    }
  } catch (const NetError&) {
    // Connection closed by the graceful sweep before we saw the status:
    // equally a refusal of new work.
    saw_shutting_down = true;
  }
  EXPECT_TRUE(saw_shutting_down);
  server.wait();
}

/// A journal directory under the system temp dir, removed on scope exit.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("dvbp_net_" + tag + "_" + std::to_string(++counter) + "_" +
            std::to_string(static_cast<unsigned>(::getpid())));
    std::filesystem::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Installs a fault hook that throws at `where` in the `n`-th journal
/// commit, as a disk failing at that instant would; cleared on scope exit.
struct FailingCommit {
  explicit FailingCommit(int n,
                         std::string_view where = "journal.commit.begin") {
    persist::set_fault_hook([this, n, where](std::string_view point) {
      if (point == where && ++commits == n) {
        throw persist::FaultInjected(point);
      }
    });
  }
  ~FailingCommit() { persist::clear_fault_hook(); }
  std::atomic<int> commits{0};
};

cloud::ShardedOptions journaled_options(std::size_t shards,
                                        const TempDir& dir,
                                        persist::FsyncPolicy fsync) {
  cloud::ShardedOptions opts = service_options(shards);
  opts.journal_dir = dir.path.string();
  opts.fsync = fsync;
  return opts;
}

// OK means applied and committed: once the journal fails, an op answers
// INTERNAL_ERROR, and a reopen recovers every job answered OK. An op whose
// frame reached the file before the commit failed is recovered too, so
// INTERNAL_ERROR means "outcome unknown", not "not applied".
TEST(NetServer, AnOpItsJournalNeverTookAnswersInternalError) {
  for (const std::string_view where :
       {"journal.commit.begin", "journal.commit.written"}) {
    SCOPED_TRACE(where);
    TempDir dir("dead_journal");
    const cloud::ShardedOptions opts =
        journaled_options(1, dir, persist::FsyncPolicy::kAlways);
    std::vector<std::uint64_t> ok_jobs;
    int failed = 0;
    {
      FailingCommit fault(4, where);
      cloud::ShardedDispatcher service(2, first_fit_factory(), opts);
      PlacementServer server(service);
      Client client("127.0.0.1", server.port());
      for (int i = 0; i < 10; ++i) {
        const Response resp = client.arrive(1.0 + i, size2(0.1, 0.1));
        if (resp.status == Status::kOk) {
          ok_jobs.push_back(resp.job);
        } else {
          EXPECT_EQ(resp.status, Status::kInternalError) << "arrive " << i;
          ++failed;
        }
      }
      client.close();
      server.stop();
    }
    EXPECT_EQ(ok_jobs, (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(failed, 7);

    // Each request is its own one-op batch, so the 4th commit carries job
    // 3 alone: past journal.commit.written its frame is in the file.
    std::vector<std::uint64_t> expected = ok_jobs;
    if (where == "journal.commit.written") expected.push_back(3);
    cloud::ShardedDispatcher reopened(2, first_fit_factory(), opts);
    std::vector<std::uint64_t> live;
    reopened.shard_dispatcher(0).for_each_job(
        [&](const Dispatcher::LiveJob& job) { live.push_back(job.item.id); });
    std::sort(live.begin(), live.end());
    EXPECT_EQ(live, expected);
  }
}

// A drain after a journal failure answers INTERNAL_ERROR and still closes
// every connection once flushed, whether a Drain RPC or request_drain()
// (the signal path) asks for it.
TEST(NetServer, ADrainAfterAJournalFailureAnswersInternalErrorAndCloses) {
  for (const bool by_rpc : {true, false}) {
    SCOPED_TRACE(by_rpc ? "Drain RPC" : "request_drain");
    TempDir dir("dead_drain");
    FailingCommit fault(4);
    cloud::ShardedDispatcher service(
        2, first_fit_factory(),
        journaled_options(2, dir, persist::FsyncPolicy::kNone));
    PlacementServer server(service);
    Client client("127.0.0.1", server.port());
    Client bystander("127.0.0.1", server.port());
    for (int i = 0; i < 10; ++i) {
      const Status status = client.arrive(1.0 + i, size2(0.1, 0.1)).status;
      EXPECT_TRUE(status == Status::kOk || status == Status::kInternalError);
    }
    EXPECT_EQ(bystander.ping().status, Status::kOk);
    if (by_rpc) {
      EXPECT_EQ(client.drain().status, Status::kInternalError);
    } else {
      server.request_drain();
    }
    server.wait();
    EXPECT_TRUE(server.draining());
    EXPECT_THROW(client.recv_response(), NetError);
    EXPECT_THROW(bystander.recv_response(), NetError);
    EXPECT_THROW(service.drain(), persist::FaultInjected);
  }
}

}  // namespace
}  // namespace dvbp::net

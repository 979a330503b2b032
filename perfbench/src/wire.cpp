#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "net/frame.hpp"
#include "trace/reduce.hpp"
#include "trace/writer.hpp"

namespace perfbench {

using namespace dvbp;

tenancy::ArbiterConfig arbiter_config(std::uint32_t tenants) {
  tenancy::ArbiterConfig config;
  config.num_tenants = tenants;
  config.capacity_units = kQuotaUnitsPerTenant * tenants;
  return config;
}

cloud::ShardedOptions stack_sharded_options(std::uint32_t tenants,
                                            const std::string& journal_dir,
                                            obs::MetricRegistry* metrics) {
  cloud::ShardedOptions options;
  options.shards = kShards;
  options.router = cloud::RouterKind::kRoundRobin;
  options.queue_capacity = kQueueCapacity;
  options.metrics = metrics;
  options.journal_dir = journal_dir;
  options.fsync = persist::FsyncPolicy::kInterval;
  options.fsync_interval_ops = kFsyncIntervalOps;
  options.tenants = tenants;
  return options;
}

namespace {

net::ServerOptions server_options(obs::MetricRegistry* metrics,
                                  tenancy::AdmissionGate* gate) {
  net::ServerOptions options;
  options.port = 0;
  options.event_loops = 1;
  options.max_inflight_per_conn = kMaxInflight;
  options.metrics = metrics;
  options.gate = gate;
  return options;
}

}  // namespace

Stack::Stack(std::size_t dim, std::uint32_t tenants,
             const std::string& journal_dir)
    : arbiter(arbiter_config(tenants)),
      gate(arbiter, &registry),
      service(
          dim,
          [](std::size_t) { return make_policy(kStackPolicy, kPolicySeed); },
          stack_sharded_options(tenants, journal_dir, &registry)),
      server(service, server_options(&registry, &gate)) {}

namespace {

/// Non-blocking loopback connection speaking the wire protocol through the
/// public frame codec. net::Client has no way to wait for a response with
/// a timeout, and the open loop must keep its schedule from a single
/// thread (the thread budget leaves one core to the generator).
class WireConn {
 public:
  explicit WireConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw net::NetError("socket: " + std::string(strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const std::string why = strerror(errno);
      ::close(fd_);
      throw net::NetError("connect: " + why);
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    in_.resize(1 << 16);
  }
  ~WireConn() { ::close(fd_); }

  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  void send(const net::Request& req) { net::encode_request(req, out_); }

  /// Writes every buffered frame. While the socket is full it keeps
  /// reading responses, so neither side can stall the other.
  void flush() {
    std::size_t pos = 0;
    while (pos < out_.size()) {
      const ssize_t n =
          ::send(fd_, out_.data() + pos, out_.size() - pos, MSG_NOSIGNAL);
      if (n > 0) {
        pos += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd p{fd_, POLLOUT | POLLIN, 0};
        ::poll(&p, 1, 100);
        if ((p.revents & POLLIN) != 0) read_available();
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw net::NetError("send: " + std::string(strerror(errno)));
      }
    }
    out_.clear();
  }

  /// Appends every complete response to `out`. When none is buffered it
  /// first waits up to `timeout_ns` for bytes (negative: no limit).
  void receive(std::int64_t timeout_ns, std::vector<net::Response>& out) {
    if (decode_buffered(out)) return;
    if (closed_) throw net::NetError("server closed the connection");
    pollfd p{fd_, POLLIN, 0};
    timespec ts{timeout_ns / 1'000'000'000, timeout_ns % 1'000'000'000};
    const int ready = ::ppoll(&p, 1, timeout_ns < 0 ? nullptr : &ts, nullptr);
    if (ready > 0) read_available();
    decode_buffered(out);
  }

 private:
  bool decode_buffered(std::vector<net::Response>& out) {
    bool any = false;
    while (auto payload = decoder_.next()) {
      out.push_back(net::decode_response(payload->data(), payload->size()));
      any = true;
    }
    return any;
  }

  void read_available() {
    for (;;) {
      const ssize_t n = ::recv(fd_, in_.data(), in_.size(), 0);
      if (n > 0) {
        decoder_.feed(in_.data(), static_cast<std::size_t>(n));
      } else if (n == 0) {
        closed_ = true;  // the server closes after answering a Drain
        return;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      } else if (errno != EINTR) {
        throw net::NetError("recv: " + std::string(strerror(errno)));
      }
    }
  }

  int fd_ = -1;
  bool closed_ = false;
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> in_;
  net::FrameDecoder decoder_;
};

/// One request as the generator saw it.
struct Sample {
  std::int64_t due_ns = 0;   ///< open loop: its slot in the schedule
  std::int64_t send_ns = 0;
  std::int64_t ready_ns = 0;  ///< closed loop: when window space opened
  std::int64_t resp_ns = 0;
  std::uint32_t item = 0;
  OpKind kind = OpKind::kArrive;
  net::Status status = net::Status::kOk;
  std::uint8_t responses = 0;
};

struct DriveResult {
  std::vector<Sample> samples;  ///< by request id - 1
  std::uint64_t flushes = 0;
  std::uint64_t stray_responses = 0;  ///< unknown ids or second answers
  std::int64_t start_ns = 0;
};

/// Per-item progress through the op stream.
enum ItemState : std::uint8_t { kIdle, kInFlight, kLive, kRefused };

/// Below this much time to the next due send, the open loop spins instead
/// of sleeping in ppoll, so wake-up latency does not make it late.
constexpr std::int64_t kSpinNs = 30'000;

/// Sequential queries timed on an idle stack when the op stream has none.
constexpr int kQueryProbes = 256;

DriveResult drive(WireConn& conn, const Workload& w, const DriveConfig& cfg,
                  SpanLog& spans) {
  const std::vector<Op>& ops = w.ops;
  const double lap_shift = w.reader->last_departure() + 1.0;
  const double interval_ns = cfg.open_loop ? 1e9 / cfg.rate : 0.0;

  DriveResult r;
  r.samples.reserve(cfg.open_loop ? ops.size() : 4 * ops.size());
  std::vector<ItemState> state(w.items(), kIdle);
  std::vector<std::uint64_t> job(w.items(), 0);
  std::vector<net::Response> responses;
  responses.reserve(4096);

  std::size_t pos = 0;
  std::uint64_t lap = 0;
  std::uint64_t inflight = 0;
  r.start_ns = to_ns(Clock::now());
  const auto due_of = [&](std::size_t i) {
    return r.start_ns + static_cast<std::int64_t>(
                            std::llround(static_cast<double>(i) * interval_ns));
  };
  const std::int64_t deadline_ns =
      r.start_ns + static_cast<std::int64_t>(cfg.seconds * 1e9);
  bool stopping = cfg.open_loop;  // the open loop never wraps
  std::int64_t ready_ns = r.start_ns;

  for (;;) {
    std::int64_t now = to_ns(Clock::now());
    if (!stopping && now >= deadline_ns) stopping = true;

    const std::size_t first_new = r.samples.size();
    bool blocked = false;  // the next op is a departure awaiting its job id
    for (;;) {
      if (pos == ops.size()) {
        if (stopping) break;
        pos = 0;
        ++lap;
      }
      const Op& op = ops[pos];
      std::int64_t due = 0;
      if (cfg.open_loop) {
        due = due_of(pos);
        if (due > now) break;
      } else if (inflight >= cfg.window) {
        break;
      }
      net::Request req;
      req.time = op.time + static_cast<double>(lap) * lap_shift;
      if (op.kind == OpKind::kDepart) {
        if (state[op.item] == kInFlight) {
          blocked = true;
          break;
        }
        if (state[op.item] != kLive) {  // never sent, or refused
          state[op.item] = kIdle;
          ++pos;
          continue;
        }
        req.type = net::MsgType::kDepart;
        req.job = job[op.item];
        state[op.item] = kIdle;
      } else if (stopping && !cfg.open_loop) {
        ++pos;  // past the deadline only departures of admitted jobs go out
        continue;
      } else if (op.kind == OpKind::kArrive) {
        req.type = net::MsgType::kArrive;
        req.size = w.sizes[op.item];
        req.tenant = w.tenants[op.item];
        state[op.item] = kInFlight;
      } else {
        req.type = net::MsgType::kQuery;
      }
      req.id = r.samples.size() + 1;
      const std::int64_t sent = to_ns(Clock::now());
      conn.send(req);
      if (spans.enabled()) {
        spans.add(req.id, Span::kSend, sent, to_ns(Clock::now()));
      }
      Sample s;
      s.due_ns = due;
      s.send_ns = sent;
      s.ready_ns = ready_ns;
      s.item = op.item;
      s.kind = op.kind;
      r.samples.push_back(s);
      ++inflight;
      ++pos;
    }
    if (r.samples.size() > first_new) {
      const std::int64_t t0 = to_ns(Clock::now());
      conn.flush();
      ++r.flushes;
      if (spans.enabled()) {
        spans.add(first_new + 1, Span::kFlush, t0, to_ns(Clock::now()));
      }
    }
    if (inflight == 0 && pos == ops.size() && stopping) break;

    std::int64_t timeout_ns = -1;
    if (cfg.open_loop && pos < ops.size() && !blocked) {
      const std::int64_t wait = due_of(pos) - to_ns(Clock::now());
      timeout_ns = std::max<std::int64_t>(0, wait - kSpinNs);
    }
    if (inflight == 0) {
      if (timeout_ns == 0) continue;  // nothing to read: spin on the clock
      if (timeout_ns < 0) {
        throw std::logic_error("generator stalled with nothing in flight");
      }
    }
    responses.clear();
    conn.receive(timeout_ns, responses);
    now = to_ns(Clock::now());
    for (const net::Response& resp : responses) {
      if (resp.id == 0 || resp.id > r.samples.size() ||
          r.samples[resp.id - 1].responses++ != 0) {
        ++r.stray_responses;
        continue;
      }
      Sample& s = r.samples[resp.id - 1];
      s.resp_ns = now;
      s.status = resp.status;
      --inflight;
      if (s.kind == OpKind::kArrive) {
        if (resp.status == net::Status::kOk) {
          job[s.item] = resp.job;
          state[s.item] = kLive;
        } else {
          state[s.item] = kRefused;
        }
      }
      if (spans.enabled()) {
        spans.add(resp.id, Span::kResponse,
                  cfg.open_loop ? s.due_ns : s.send_ns, now);
      }
    }
    if (!responses.empty()) ready_ns = now;
  }
  return r;
}

/// Quantile over the union of same-bounds histograms, interpolated the way
/// obs::Histogram::quantile does.
double merged_quantile(const std::vector<const obs::Histogram*>& hists,
                       double q) {
  const std::vector<double>& bounds = hists.front()->bounds();
  std::vector<std::uint64_t> counts(bounds.size() + 1, 0);
  std::uint64_t total = 0;
  for (const obs::Histogram* h : hists) {
    const std::vector<std::uint64_t> c = h->bucket_counts();
    for (std::size_t i = 0; i < c.size(); ++i) counts[i] += c[i];
  }
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= rank) {
      if (i >= bounds.size()) return bounds.back();
      const double hi = bounds[i];
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double within =
          counts[i] == 0 ? 1.0
                         : (rank - static_cast<double>(seen - counts[i])) /
                               static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
  }
  return bounds.back();
}

/// The instance the service actually packed, rebuilt from its admission
/// records: job id j becomes item j.
Instance applied_instance(const cloud::ShardedDispatcher& service,
                          std::size_t dim) {
  Instance inst(dim);
  for (JobId job = 0; job < service.jobs_admitted(); ++job) {
    const Item& item = service.job_item(job);
    inst.add(item.arrival, item.departure, item.size);
  }
  return inst;
}

/// Packing::validate over the whole packing, one bin at a time: each bin
/// is audited against the sub-instance of its own items. A bin's load and
/// occupancy change only at its own items' events, so this checks exactly
/// what one call on the whole packing would, without scanning every event
/// time of the run for every bin (hours at a million events). The
/// item <-> bin cross-check runs once over the whole packing.
std::optional<std::string> validate_per_bin(const Packing& packing,
                                            const Instance& inst) {
  if (packing.assignment().size() != inst.size()) {
    return "assignment size != instance size";
  }
  std::vector<std::uint32_t> seen(inst.size(), 0);
  for (const BinRecord& b : packing.bins()) {
    for (const ItemId r : b.items) {
      if (r >= inst.size()) return "unknown item in bin";
      if (++seen[r] != 1 || packing.assignment()[r] != b.id) {
        return "item " + std::to_string(r) + " packed inconsistently";
      }
    }
  }
  for (std::size_t r = 0; r < seen.size(); ++r) {
    if (seen[r] != 1) return "item " + std::to_string(r) + " not packed";
  }
  for (const BinRecord& bin : packing.bins()) {
    Instance sub(inst.dim());
    BinRecord rec;
    rec.id = 0;
    rec.opened = bin.opened;
    rec.closed = bin.closed;
    for (const ItemId r : bin.items) {
      rec.items.push_back(
          sub.add(inst[r].arrival, inst[r].departure, inst[r].size));
    }
    std::vector<BinId> assignment(rec.items.size(), 0);
    if (auto err = Packing(std::move(assignment), {std::move(rec)})
                       .validate(sub)) {
      return "bin " + std::to_string(bin.id) + ": " + *err;
    }
  }
  return std::nullopt;
}

/// Per-second windows of the run: median of each window's OK count and of
/// its latency quantiles, over the windows that lie wholly inside the run.
struct WindowStats {
  double throughput = 0.0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
};

WindowStats window_stats(const DriveResult& r, const DriveConfig& cfg,
                         std::size_t full_windows) {
  std::vector<std::vector<double>> latency(full_windows);
  std::vector<double> ok(full_windows, 0.0);
  std::int64_t last_ns = r.start_ns;
  std::uint64_t ok_total = 0;
  for (const Sample& s : r.samples) {
    last_ns = std::max(last_ns, s.resp_ns);
    if (s.status == net::Status::kOk) ++ok_total;
    const auto w = static_cast<std::size_t>((s.resp_ns - r.start_ns) / 1'000'000'000);
    if (w >= full_windows) continue;
    latency[w].push_back(
        static_cast<double>(s.resp_ns - (cfg.open_loop ? s.due_ns : s.send_ns)));
    if (s.status == net::Status::kOk) ok[w] += 1.0;
  }
  WindowStats stats;
  if (full_windows == 0) {  // runs under a second: one window, whole run
    std::vector<double> all;
    for (const Sample& s : r.samples) {
      all.push_back(static_cast<double>(
          s.resp_ns - (cfg.open_loop ? s.due_ns : s.send_ns)));
    }
    stats.throughput = static_cast<double>(ok_total) /
                       (static_cast<double>(last_ns - r.start_ns) * 1e-9);
    stats.p50_ns = quantile(all, 0.5);
    stats.p90_ns = quantile(all, 0.9);
    stats.p99_ns = quantile(all, 0.99);
    return stats;
  }
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  for (std::size_t w = 0; w < full_windows; ++w) {
    p50.push_back(quantile(latency[w], 0.5));
    p90.push_back(quantile(latency[w], 0.9));
    p99.push_back(quantile(latency[w], 0.99));
  }
  // An open loop's per-window count would only echo its fixed rate.
  stats.throughput = cfg.open_loop
                         ? static_cast<double>(ok_total) * 1e9 /
                               static_cast<double>(last_ns - r.start_ns)
                         : median(ok);
  stats.p50_ns = median(p50);
  stats.p90_ns = median(p90);
  stats.p99_ns = median(p99);
  return stats;
}

double kind_p50_us(const DriveResult& r, OpKind kind, bool open_loop) {
  std::vector<double> v;
  for (const Sample& s : r.samples) {
    if (s.kind == kind) {
      v.push_back(static_cast<double>(s.resp_ns -
                                      (open_loop ? s.due_ns : s.send_ns)));
    }
  }
  return quantile(v, 0.5) / 1e3;
}

}  // namespace

std::string fresh_dir(const std::string& parent, const std::string& stem) {
  static int counter = 0;
  const std::string path =
      parent + "/" + stem + "-" + std::to_string(++counter);
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

double build_stack_seconds(const Workload& w, const std::string& dir) {
  const std::string journal = fresh_dir(dir, "setup-journal");
  const auto start = Clock::now();
  double seconds = 0.0;
  {
    Stack stack(w.dim(), w.num_tenants, journal);
    WireConn conn(stack.server.port());
    seconds = seconds_since(start);
  }
  std::filesystem::remove_all(journal);
  return seconds;
}

WireRun run_wire_once(const Workload& w, const DriveConfig& cfg,
                      const std::string& dir, SpanLog& spans, Outcome& out) {
  const std::string journal = fresh_dir(dir, "journal");
  WireRun run;
  {
    Stack stack(w.dim(), w.num_tenants, journal);
    WireConn conn(stack.server.port());
    const DriveResult r = drive(conn, w, cfg, spans);

    std::uint64_t unanswered = 0;
    for (const Sample& s : r.samples) {
      if (s.responses != 1) ++unanswered;
      if (s.status != net::Status::kOk) ++run.not_ok;
    }
    run.attempted = r.samples.size();
    out.check(unanswered == 0 && r.stray_responses == 0,
              w.name + ": every request gets exactly one response");
    out.check(stack.service.jobs_active() == 0,
              w.name + ": jobs_active() == 0 after the last departure");

    // An op stream without reads still reports read latency: time one
    // query at a time on the now idle stack.
    std::uint64_t next_id = r.samples.size() + 1;
    std::vector<double> probes;
    std::vector<net::Response> responses;
    const bool has_queries =
        std::any_of(w.ops.begin(), w.ops.end(),
                    [](const Op& op) { return op.kind == OpKind::kQuery; });
    for (int i = 0; !has_queries && i < kQueryProbes; ++i) {
      net::Request query;
      query.id = next_id++;
      query.type = net::MsgType::kQuery;
      query.time = w.reader->last_departure();
      const auto t0 = Clock::now();
      conn.send(query);
      conn.flush();
      responses.clear();
      while (responses.empty()) conn.receive(-1, responses);
      probes.push_back(static_cast<double>(to_ns(Clock::now()) - to_ns(t0)));
      out.check(responses.size() == 1 && responses[0].id == query.id &&
                    responses[0].status == net::Status::kOk &&
                    responses[0].jobs_active == 0,
                w.name + ": idle query answers jobs_active == 0");
    }

    // Graceful drain over the wire; its hash must match the snapshot.
    net::Request drain;
    drain.id = next_id;
    drain.type = net::MsgType::kDrain;
    conn.send(drain);
    conn.flush();
    std::optional<net::Response> drained;
    while (!drained) {
      responses.clear();
      conn.receive(-1, responses);
      for (const net::Response& resp : responses) {
        if (resp.id == drain.id) drained = resp;
      }
    }
    stack.server.wait();
    const Packing packing = stack.service.snapshot();
    out.check(drained->status == net::Status::kOk &&
                  drained->packing_hash == packing_hash(packing),
              w.name + ": drain hash == snapshot hash");
    const Instance inst = applied_instance(stack.service, w.dim());
    const auto err = validate_per_bin(packing, inst);
    out.check(!err, w.name + ": drained packing passes Packing::validate" +
                        (err ? " (" + *err + ")" : std::string()));

    // Objective against the Lemma-1 bound of the trace actually applied.
    const std::string applied_path = journal + "/applied.trc";
    trace::TraceWriter::write_instance(inst, applied_path);
    const double lb =
        trace::streaming_lower_bounds(trace::TraceReader(applied_path)).best();
    run.cost_ratio = packing.cost() / lb;
    out.check(run.cost_ratio >= 1.0 - 1e-9,
              w.name + ": cost >= Lemma-1 lower bound");

    const std::size_t full_windows =
        cfg.open_loop
            ? static_cast<std::size_t>(static_cast<double>(w.ops.size()) /
                                       cfg.rate)
            : static_cast<std::size_t>(cfg.seconds);
    const WindowStats ws = window_stats(r, cfg, full_windows);
    run.throughput_ops_per_s = ws.throughput;
    run.latency_p50_ms = ws.p50_ns / 1e6;

    WireReadings& rd = run.readings;
    obs::MetricRegistry& reg = stack.registry;
    std::vector<double> all;
    std::vector<double> late;
    for (const Sample& s : r.samples) {
      all.push_back(static_cast<double>(
          s.resp_ns - (cfg.open_loop ? s.due_ns : s.send_ns)));
      late.push_back(static_cast<double>(
          s.send_ns - (cfg.open_loop ? s.due_ns : s.ready_ns)));
    }
    rd.client_p50_us = quantile(all, 0.5) / 1e3;
    rd.client_p90_us = ws.p90_ns / 1e3;
    rd.client_p99_us = ws.p99_ns / 1e3;
    rd.arrive_p50_us = kind_p50_us(r, OpKind::kArrive, cfg.open_loop);
    rd.depart_p50_us = kind_p50_us(r, OpKind::kDepart, cfg.open_loop);
    rd.query_p50_us = has_queries
                          ? kind_p50_us(r, OpKind::kQuery, cfg.open_loop)
                          : quantile(probes, 0.5) / 1e3;
    rd.late_ms_p99 = quantile(late, 0.99) / 1e6;
    const obs::Histogram& server = reg.histogram("dvbp.net.request_latency_ns");
    rd.server_p50_us = server.quantile(0.5) / 1e3;
    rd.server_p99_us = server.quantile(0.99) / 1e3;
    const double requests =
        static_cast<double>(reg.counter("dvbp.net.requests_total").value());
    rd.bytes_per_op =
        static_cast<double>(reg.counter("dvbp.net.bytes_in_total").value() +
                            reg.counter("dvbp.net.bytes_out_total").value()) /
        requests;
    rd.requests_per_flush = static_cast<double>(r.samples.size()) /
                            static_cast<double>(r.flushes);
    rd.backpressure_share =
        static_cast<double>(
            reg.counter("dvbp.net.backpressure_rejections_total").value()) /
        requests;
    rd.decode_errors = static_cast<double>(
        reg.counter("dvbp.net.decode_errors_total").value());
    const auto admitted = static_cast<double>(stack.gate.admitted_total());
    const auto denied = static_cast<double>(stack.gate.denied_total());
    rd.deny_share = denied / std::max(1.0, admitted + denied);
    std::vector<const obs::Histogram*> placement;
    double applied = 0.0;
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::string prefix = "dvbp.shard." + std::to_string(s) + ".";
      placement.push_back(&reg.histogram(prefix + "placement_latency_ns"));
      applied += static_cast<double>(
          reg.counter(prefix + "ops_applied_total").value());
    }
    rd.placement_p50_us = merged_quantile(placement, 0.5) / 1e3;
    // One journal commit per applied batch (group commit).
    rd.batch_size_mean =
        applied / std::max(1.0, static_cast<double>(
                                    reg.counter("dvbp.persist.journal_commits_total")
                                        .value()));
    rd.fsyncs_per_kop =
        1e3 * static_cast<double>(reg.counter("dvbp.persist.fsyncs_total").value()) /
        applied;
  }
  std::filesystem::remove_all(journal);
  return run;
}

}  // namespace perfbench

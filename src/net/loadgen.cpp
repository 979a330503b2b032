#include "net/loadgen.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <deque>
#include <exception>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/rvec.hpp"
#include "net/client.hpp"
#include "trace/reader.hpp"

namespace dvbp::net {

namespace {

using Clock = std::chrono::steady_clock;

/// In open pacing a worker stops blocking this long before its next due
/// send and polls for responses without blocking until then. Against
/// waiting until the due time this lowered both the open-loop p50 and the
/// send lateness (docs/PERFORMANCE.md).
constexpr auto kSpin = std::chrono::microseconds(30);

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// One connection's tallies, and its raw samples.
struct ConnStats : LoadgenResult {
  std::vector<double> latencies_ns;  // OK responses only
  std::vector<double> late_ns;       // open pacing: to socket minus due
};

/// The tally a response status counts in.
std::uint64_t& tally(ConnStats& stats, Status status) {
  switch (status) {
    case Status::kOk: return stats.ok;
    case Status::kRetryLater: return stats.retry_later;
    case Status::kShuttingDown: return stats.shutting_down;
    case Status::kBadRequest: return stats.bad_request;
    case Status::kUnknownJob: return stats.unknown_job;
    default: return stats.other_errors;
  }
}

/// One request of a connection's op stream.
struct Op {
  bool depart = false;
  std::uint64_t job = 0;  // departs: the server's job id
  ItemId item = kNoItem;  // trace: the event's item
  Time time = 0.0;
  TenantId tenant = kNoTenant;
  Clock::time_point from{};  // latency origin: due time (open) or send
};

/// The synthetic mix: each op departs a random live job with probability
/// depart_fraction, else arrives with uniform demands. Closed pacing stops
/// it after requests_per_connection ops, open pacing at the end of the run.
class SyntheticMix {
 public:
  SyntheticMix(const LoadgenOptions& opt, std::size_t index)
      : size(opt.dim),
        depart_fraction_(opt.depart_fraction),
        rng_(opt.seed * 1000003 + index),
        remaining_(opt.open_loop_rate > 0.0
                       ? std::numeric_limits<std::uint64_t>::max()
                       : opt.requests_per_connection) {}

  bool next(Op& op) {
    if (remaining_ == 0) return false;
    --remaining_;
    vtime_ += 1e-6;
    op = Op{};
    op.time = vtime_;
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    if (!live_.empty() && coin(rng_) < depart_fraction_) {
      const std::size_t k = static_cast<std::size_t>(rng_() % live_.size());
      op.depart = true;
      op.job = live_[k];
      live_[k] = live_.back();
      live_.pop_back();
    } else {
      std::uniform_real_distribution<double> unit(0.05, 0.6);
      for (std::size_t j = 0; j < size.dim(); ++j) size[j] = unit(rng_);
    }
    return true;
  }

  bool ended() const { return remaining_ == 0; }

  void settle(const Op& op, const Response& resp, bool retry) {
    if (resp.status == Status::kOk && !op.depart) live_.push_back(resp.job);
    // A refused depart leaves its job live on the server.
    if (resp.status == Status::kRetryLater && op.depart) {
      live_.push_back(op.job);
    }
    if (retry) ++remaining_;  // the slot sends a fresh op
  }

  RVec size;

 private:
  double depart_fraction_;
  std::mt19937_64 rng_;
  std::uint64_t remaining_;
  std::vector<std::uint64_t> live_;
  Time vtime_ = 0.0;
};

/// One connection's share of a trace, in trace order. A departure waits
/// while its arrival is in flight, and is dropped once that arrival was
/// refused for good.
class TracePartition {
 public:
  TracePartition(const trace::TraceReader& reader,
                 std::deque<trace::TraceEvent> events)
      : size(reader.dim()), reader_(reader), pending_(std::move(events)) {}

  bool next(Op& op) {
    op = Op{};
    for (; !pending_.empty(); pending_.pop_front()) {
      const trace::TraceEvent& ev = pending_.front();
      if (ev.kind == EventKind::kArrival) {
        reader_.size_into(ev.item, size);
        op.tenant = reader_.tenant(ev.item);
        job_of_[ev.item] = kAwaiting;
      } else {
        const auto it = job_of_.find(ev.item);
        if (it == job_of_.end()) continue;  // its arrival was refused
        if (it->second == kAwaiting) return false;
        op.depart = true;
        op.job = it->second;
      }
      op.item = ev.item;
      op.time = ev.time;
      pending_.pop_front();
      return true;
    }
    return false;
  }

  bool ended() const { return pending_.empty(); }

  void settle(const Op& op, const Response& resp, bool retry) {
    if (resp.status == Status::kOk) {
      if (op.depart) {
        job_of_.erase(op.item);
      } else {
        job_of_[op.item] = resp.job;
      }
    } else if (retry) {
      pending_.push_front(trace::TraceEvent{
          op.time, op.depart ? EventKind::kDeparture : EventKind::kArrival,
          op.item});
    } else if (!op.depart) {
      job_of_.erase(op.item);  // drops its departure
    }
  }

  RVec size;

 private:
  static constexpr std::uint64_t kAwaiting =
      std::numeric_limits<std::uint64_t>::max();

  const trace::TraceReader& reader_;
  std::deque<trace::TraceEvent> pending_;  // retries first, then the rest
  /// Items whose arrival was sent: the server's job id, or kAwaiting.
  std::unordered_map<ItemId, std::uint64_t> job_of_;
};

/// One connection: sends `source`'s ops at `opt`'s pacing and tallies
/// every response. A source's next(op) fills `op` (and `size` for an
/// arrival) with the next op, or returns false when the stream has ended
/// (ended()) or its head is a departure whose arrival is still in flight;
/// settle() books a response, and `retry` offers a refused op again.
template <class Source>
void run_connection(const LoadgenOptions& opt, Source source,
                    ConnStats& stats) {
  Client client(opt.host, opt.port);
  const bool open = opt.open_loop_rate > 0.0;
  // In open pacing lateness is latency, so the worker's timed waits run
  // with 1 ns of timer slack (the default 50 us lets a wake-up land late).
  if (open) ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const Clock::time_point start = Clock::now();
  const auto after = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  const double period =
      open ? static_cast<double>(opt.connections) / opt.open_loop_rate : 0.0;
  const Clock::time_point end = open && opt.trace_path.empty()
                                    ? after(opt.duration_s)
                                    : Clock::time_point::max();
  std::unordered_map<std::uint64_t, Op> inflight;
  std::uint64_t k = 0;  // ops sent so far
  Op op;

  for (;;) {
    const std::uint64_t burst = k;  // the first op this pass sends
    Clock::time_point due = after(period * static_cast<double>(k));
    bool over = due >= end;
    bool stalled = false;
    while (!over && (open ? due <= Clock::now()
                          : inflight.size() < opt.window)) {
      if (!source.next(op)) {
        over = source.ended();
        stalled = !over;
        break;
      }
      op.from = open ? due : Clock::now();
      const std::uint64_t id =
          op.depart ? client.send_depart(op.time, op.job)
                    : client.send_arrive(
                          op.time, source.size,
                          std::numeric_limits<Time>::infinity(), op.tenant);
      inflight.emplace(id, op);
      ++stats.requests_sent;
      due = after(period * static_cast<double>(++k));
      over = due >= end;
    }
    if (open) {
      // A send is as late as the moment its burst goes to the socket. The
      // write itself is left out: over loopback the server can run on this
      // CPU before the write returns.
      const Clock::time_point handed = Clock::now();
      for (std::uint64_t j = burst; j < k; ++j) {
        stats.late_ns.push_back(
            ns_between(after(period * static_cast<double>(j)), handed));
      }
    }
    client.flush();
    if (over && inflight.empty()) return;

    // Wait for a response, in open pacing only until just before the next
    // op falls due; a stalled departure waits for its arrival's response.
    const Clock::time_point deadline = open && !over && !stalled
                                           ? due - kSpin
                                           : Clock::time_point::max();
    const std::optional<Response> resp = client.recv_response(deadline);
    if (!resp) continue;
    const auto it = inflight.find(resp->id);
    if (it == inflight.end()) {
      throw std::logic_error("loadgen: response for unknown request id");
    }
    const Op done = it->second;
    inflight.erase(it);
    ++tally(stats, resp->status);
    if (resp->status == Status::kOk) {
      stats.latencies_ns.push_back(ns_between(done.from, Clock::now()));
    }
    source.settle(done, *resp, !open && resp->status == Status::kRetryLater);
  }
}

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

LoadgenResult run_loadgen(const LoadgenOptions& options) {
  if (options.connections == 0) {
    throw std::invalid_argument("loadgen: connections must be >= 1");
  }
  if (options.dim == 0) {
    throw std::invalid_argument("loadgen: dim must be >= 1");
  }
  if (options.open_loop_rate <= 0.0 && options.window == 0) {
    throw std::invalid_argument("loadgen: closed loop needs window >= 1");
  }
  if (options.open_loop_rate > 0.0 && options.trace_path.empty() &&
      options.duration_s <= 0.0) {
    throw std::invalid_argument("loadgen: open loop needs duration_s > 0");
  }
  // Opened (and fully validated) once and split by item across the
  // connections; the workers share it read-only.
  std::optional<trace::TraceReader> reader;
  std::vector<std::deque<trace::TraceEvent>> shares(options.connections);
  if (!options.trace_path.empty()) {
    reader.emplace(options.trace_path);
    trace::TraceCursor cursor(*reader);
    for (trace::TraceEvent ev; cursor.next(ev);) {
      shares[ev.item % options.connections].push_back(ev);
    }
  }

  std::vector<ConnStats> stats(options.connections);
  std::vector<std::exception_ptr> errors(options.connections);
  std::vector<std::thread> workers;
  workers.reserve(options.connections);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < options.connections; ++i) {
    workers.emplace_back([&, i] {
      try {
        if (reader) {
          run_connection(options,
                         TracePartition(*reader, std::move(shares[i])),
                         stats[i]);
        } else {
          run_connection(options, SyntheticMix(options, i), stats[i]);
        }
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  LoadgenResult result;
  std::vector<double> latencies;
  std::vector<double> late;
  for (const ConnStats& s : stats) {
    result.requests_sent += s.requests_sent;
    result.ok += s.ok;
    result.retry_later += s.retry_later;
    result.shutting_down += s.shutting_down;
    result.bad_request += s.bad_request;
    result.unknown_job += s.unknown_job;
    result.other_errors += s.other_errors;
    latencies.insert(latencies.end(), s.latencies_ns.begin(),
                     s.latencies_ns.end());
    late.insert(late.end(), s.late_ns.begin(), s.late_ns.end());
  }
  result.elapsed_s = elapsed;
  result.throughput_rps =
      elapsed > 0.0 ? static_cast<double>(result.ok) / elapsed : 0.0;
  std::sort(latencies.begin(), latencies.end());
  result.samples = latencies.size();
  result.p50_ns = nearest_rank(latencies, 0.50);
  result.p99_ns = nearest_rank(latencies, 0.99);
  result.p999_ns = nearest_rank(latencies, 0.999);
  result.max_ns = latencies.empty() ? 0.0 : latencies.back();
  std::sort(late.begin(), late.end());
  result.late_p50_ns = nearest_rank(late, 0.50);
  result.late_p99_ns = nearest_rank(late, 0.99);
  return result;
}

}  // namespace dvbp::net

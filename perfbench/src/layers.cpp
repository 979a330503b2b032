#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <thread>

#include "cloud/sharded_dispatcher.hpp"
#include "core/dispatcher.hpp"
#include "core/policies/registry.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "persist/journal.hpp"
#include "tenancy/gate.hpp"
#include "trace/replay.hpp"
#include "wire.hpp"

namespace perfbench {

using namespace dvbp;

namespace {

constexpr std::size_t kPassOps = 400000;
constexpr std::size_t kCodecOps = 100000;
constexpr std::size_t kPersistOps = 100000;
constexpr double kCloudPassSeconds = 1.5;
constexpr std::size_t kCloudWindow = 128;
constexpr double kInf = std::numeric_limits<Time>::infinity();

std::int64_t now_ns() { return to_ns(Clock::now()); }

/// Keeps a computed value observable so the loop producing it stays.
void keep(double v) {
  volatile double sink = v;
  (void)sink;
}

double cursor_ns_per_event(const Workload& w) {
  trace::TraceCursor cursor(*w.reader);
  trace::TraceEvent ev;
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    cursor.reset();
    double sum = 0.0;
    std::uint64_t events = 0;
    const auto start = Clock::now();
    while (cursor.next(ev)) {
      sum += ev.time;
      ++events;
    }
    reps.push_back(seconds_since(start) * 1e9 / static_cast<double>(events));
    keep(sum);
  }
  return median(reps);
}

/// A serial Dispatcher fed the op stream, each call timed (the figures
/// include one steady_clock read, ~20 ns).
struct CoreStats {
  double arrive_ns = 0.0;
  double depart_ns = 0.0;
  double open_bins_mean = 0.0;
  double bins_opened = 0.0;
  double arrive_share = 0.5;  ///< arrivals / (arrivals + departures)
};

CoreStats core_pass(const Workload& w) {
  const PolicyPtr policy = make_policy(w.policy, kPolicySeed);
  Dispatcher dispatcher(w.dim(), *policy);
  std::vector<JobId> job(w.items(), kNoItem);
  double arrive_ns = 0.0;
  double depart_ns = 0.0;
  double open_sum = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  const std::size_t n = std::min(w.ops.size(), kPassOps);
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = w.ops[i];
    if (op.kind == OpKind::kArrive) {
      const std::int64_t t0 = now_ns();
      job[op.item] = dispatcher
                         .arrive(op.time, w.sizes[op.item], kInf,
                                 w.tenants[op.item])
                         .job;
      arrive_ns += static_cast<double>(now_ns() - t0);
      ++arrivals;
      open_sum += static_cast<double>(dispatcher.open_bins());
    } else if (op.kind == OpKind::kDepart && job[op.item] != kNoItem) {
      const std::int64_t t0 = now_ns();
      dispatcher.depart(op.time, job[op.item]);
      depart_ns += static_cast<double>(now_ns() - t0);
      ++departures;
    }
  }
  CoreStats s;
  s.arrive_ns = arrive_ns / static_cast<double>(std::max<std::uint64_t>(1, arrivals));
  s.depart_ns = depart_ns / static_cast<double>(std::max<std::uint64_t>(1, departures));
  s.open_bins_mean = open_sum / static_cast<double>(std::max<std::uint64_t>(1, arrivals));
  s.bins_opened = static_cast<double>(dispatcher.bins_opened());
  s.arrive_share = static_cast<double>(arrivals) /
                   static_cast<double>(std::max<std::uint64_t>(1, arrivals + departures));
  return s;
}

/// Streamed replay with an Observer and registry attached, over the same
/// replay without; alternating pairs for at least a second.
double observer_slowdown(const Workload& w) {
  const PolicyPtr policy = make_policy(w.policy, kPolicySeed);
  std::vector<double> plain;
  std::vector<double> observed;
  const auto start = Clock::now();
  do {
    auto t0 = Clock::now();
    trace::replay_trace(*w.reader, *policy);
    plain.push_back(seconds_since(t0));
    obs::MetricRegistry registry;
    obs::Observer observer(&registry);
    trace::ReplayOptions options;
    options.observer = &observer;
    options.metrics = &registry;
    t0 = Clock::now();
    trace::replay_trace(*w.reader, *policy, options);
    observed.push_back(seconds_since(t0));
  } while (seconds_since(start) < 1.0);
  return median(observed) / median(plain);
}

net::Request request_of(const Workload& w, const Op& op, std::uint64_t id) {
  net::Request req;
  req.id = id;
  req.time = op.time;
  if (op.kind == OpKind::kArrive) {
    req.type = net::MsgType::kArrive;
    req.size = w.sizes[op.item];
    req.tenant = w.tenants[op.item];
  } else if (op.kind == OpKind::kDepart) {
    req.type = net::MsgType::kDepart;
    req.job = op.item;
  } else {
    req.type = net::MsgType::kQuery;
  }
  return req;
}

/// Encode, stream-reassemble and decode one request and one response per
/// op, over frames captured from the op stream; ns per op.
double frame_codec_ns(const Workload& w) {
  const std::size_t n = std::min(w.ops.size(), kCodecOps);
  std::vector<net::Request> requests;
  std::vector<net::Response> responses;
  for (std::size_t i = 0; i < n; ++i) {
    requests.push_back(request_of(w, w.ops[i], i + 1));
    net::Response resp;
    resp.id = i + 1;
    resp.type = requests.back().type;
    resp.job = w.ops[i].item;
    responses.push_back(resp);
  }
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::uint8_t> req_bytes;
    std::vector<std::uint8_t> resp_bytes;
    double check = 0.0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      net::encode_request(requests[i], req_bytes);
      net::encode_response(responses[i], resp_bytes);
    }
    constexpr std::size_t kChunk = 1 << 16;  // one socket read's worth
    net::FrameDecoder req_decoder;
    for (std::size_t off = 0; off < req_bytes.size(); off += kChunk) {
      req_decoder.feed(req_bytes.data() + off,
                       std::min(kChunk, req_bytes.size() - off));
      while (auto p = req_decoder.next()) {
        check += net::decode_request(p->data(), p->size()).time;
      }
    }
    net::FrameDecoder resp_decoder;
    for (std::size_t off = 0; off < resp_bytes.size(); off += kChunk) {
      resp_decoder.feed(resp_bytes.data() + off,
                        std::min(kChunk, resp_bytes.size() - off));
      while (auto p = resp_decoder.next()) {
        check += static_cast<double>(
            net::decode_response(p->data(), p->size()).job);
      }
    }
    reps.push_back(seconds_since(start) * 1e9 / static_cast<double>(n));
    keep(check);
  }
  return median(reps);
}

/// admit() per arrival plus release() per departure on a fresh gate; mean
/// ns per job.
double gate_ns_per_job(const Workload& w) {
  tenancy::Arbiter arbiter(arbiter_config(w.num_tenants));
  obs::MetricRegistry registry;
  tenancy::AdmissionGate gate(arbiter, &registry);
  std::vector<std::uint8_t> admitted(w.items(), 0);
  double total_ns = 0.0;
  std::uint64_t arrivals = 0;
  const std::size_t n = std::min(w.ops.size(), kPassOps);
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = w.ops[i];
    if (op.kind == OpKind::kArrive) {
      const std::int64_t t0 = now_ns();
      admitted[op.item] =
          gate.admit(op.time, w.tenants[op.item], w.sizes[op.item], op.item);
      total_ns += static_cast<double>(now_ns() - t0);
      ++arrivals;
    } else if (op.kind == OpKind::kDepart && admitted[op.item] != 0) {
      const std::int64_t t0 = now_ns();
      gate.release(w.tenants[op.item], w.sizes[op.item]);
      total_ns += static_cast<double>(now_ns() - t0);
    }
  }
  return total_ns / static_cast<double>(std::max<std::uint64_t>(1, arrivals));
}

/// Benchmark-owned completion hook: stamps when each op was applied.
class StampSink : public cloud::CompletionSink {
 public:
  explicit StampSink(std::size_t n) : done_ns_(n, 0) {}
  void op_applied(std::uint64_t cookie, JobId) noexcept override {
    done_ns_[cookie] = now_ns();
    completed_.fetch_add(1, std::memory_order_release);
  }
  std::uint64_t completed() const noexcept {
    return completed_.load(std::memory_order_acquire);
  }
  /// Read only after ShardedDispatcher::drain().
  const std::vector<std::int64_t>& done_ns() const noexcept { return done_ns_; }

 private:
  std::vector<std::int64_t> done_ns_;
  std::atomic<std::uint64_t> completed_{0};
};

struct CloudStats {
  double submit_ns = 0.0;
  double completion_p50_us = 0.0;
  double completion_p99_us = 0.0;
  double queue_depth_max = 0.0;
  double queue_full_share = 0.0;
};

/// The sharded service with the stack's options, fed in-process through
/// try_arrive/try_depart: paced at `rate` like the open loop, or with a
/// window of ops in flight.
CloudStats cloud_pass(const Workload& w, const std::string& dir, double rate) {
  const std::string journal = fresh_dir(dir, "cloud-journal");
  CloudStats stats;
  {
    obs::MetricRegistry registry;
    cloud::ShardedDispatcher service(
        w.dim(),
        [](std::size_t) { return make_policy(kStackPolicy, kPolicySeed); },
        stack_sharded_options(w.num_tenants, journal, &registry));
    std::vector<obs::Gauge*> depth;
    for (std::size_t s = 0; s < kShards; ++s) {
      depth.push_back(&registry.gauge("dvbp.shard." + std::to_string(s) +
                                      ".queue_depth"));
    }
    const auto sink = std::make_shared<StampSink>(w.ops.size());
    std::vector<std::int64_t> submitted_ns;
    std::vector<JobId> job(w.items(), kNoItem);
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(kCloudPassSeconds * 1e9);
    const double interval_ns = rate > 0.0 ? 1e9 / rate : 0.0;
    std::uint64_t attempts = 0;
    std::uint64_t full = 0;
    double submit_total = 0.0;
    for (const Op& op : w.ops) {
      if (op.kind == OpKind::kQuery) continue;
      if (op.kind == OpKind::kDepart && job[op.item] == kNoItem) continue;
      const std::uint64_t cookie = submitted_ns.size();
      if (rate > 0.0) {
        const auto due = start + static_cast<std::int64_t>(
                                     static_cast<double>(cookie) * interval_ns);
        while (now_ns() < due) {
        }
      } else {
        while (cookie - sink->completed() >= kCloudWindow) {
          std::this_thread::yield();
        }
      }
      if (now_ns() > deadline) break;
      for (;;) {
        const std::int64_t t0 = now_ns();
        bool accepted = false;
        if (op.kind == OpKind::kArrive) {
          const auto id = service.try_arrive(op.time, w.sizes[op.item], kInf,
                                             sink, cookie, w.tenants[op.item]);
          accepted = id.has_value();
          if (accepted) job[op.item] = *id;
        } else {
          accepted = service.try_depart(op.time, job[op.item], sink, cookie);
          if (accepted) job[op.item] = kNoItem;
        }
        submit_total += static_cast<double>(now_ns() - t0);
        ++attempts;
        if (accepted) {
          submitted_ns.push_back(t0);
          break;
        }
        ++full;
      }
      for (const obs::Gauge* g : depth) {
        stats.queue_depth_max = std::max(stats.queue_depth_max, g->value());
      }
    }
    service.drain();
    std::vector<double> completion;
    for (std::size_t c = 0; c < submitted_ns.size(); ++c) {
      completion.push_back(
          static_cast<double>(sink->done_ns()[c] - submitted_ns[c]));
    }
    stats.submit_ns = submit_total / static_cast<double>(std::max<std::uint64_t>(1, attempts));
    stats.completion_p50_us = quantile(completion, 0.5) / 1e3;
    stats.completion_p99_us = quantile(completion, 0.99) / 1e3;
    stats.queue_full_share =
        static_cast<double>(full) / static_cast<double>(std::max<std::uint64_t>(1, attempts));
  }
  std::filesystem::remove_all(journal);
  return stats;
}

struct PersistStats {
  double append_ns = 0.0;
  double commit_us = 0.0;
  double bytes_per_op = 0.0;
};

/// A JournalWriter with the stack's fsync policy, committing every `batch`
/// appends (the batch size the stack was observed to apply).
PersistStats persist_pass(const Workload& w, const std::string& dir,
                          double batch_size) {
  const std::string journal = fresh_dir(dir, "persist-journal");
  const auto batch =
      static_cast<std::size_t>(std::max(1.0, std::round(batch_size)));
  PersistStats stats;
  obs::MetricRegistry registry;
  std::uint64_t appends = 0;
  {
    persist::JournalOptions options;
    options.fsync = persist::FsyncPolicy::kInterval;
    options.fsync_interval_ops = kFsyncIntervalOps;
    options.metrics = &registry;
    persist::JournalWriter writer(journal, 1, options);
    double append_total = 0.0;
    double commit_total = 0.0;
    std::uint64_t commits = 0;
    const std::size_t n = std::min(w.ops.size(), kPersistOps);
    for (std::size_t i = 0; i < n; ++i) {
      const Op& op = w.ops[i];
      if (op.kind == OpKind::kQuery) continue;
      std::int64_t t0 = now_ns();
      if (op.kind == OpKind::kArrive) {
        writer.append(persist::OpKind::kArrive, op.time, op.item, kInf,
                      &w.sizes[op.item], kNoBin, false, w.tenants[op.item]);
      } else {
        writer.append(persist::OpKind::kDepart, op.time, op.item);
      }
      append_total += static_cast<double>(now_ns() - t0);
      if (++appends % batch == 0) {
        t0 = now_ns();
        writer.commit();
        commit_total += static_cast<double>(now_ns() - t0);
        ++commits;
      }
    }
    writer.commit();
    stats.append_ns = append_total / static_cast<double>(std::max<std::uint64_t>(1, appends));
    stats.commit_us = commit_total / 1e3 /
                      static_cast<double>(std::max<std::uint64_t>(1, commits));
  }
  stats.bytes_per_op =
      static_cast<double>(
          registry.counter("dvbp.persist.journal_bytes_total").value()) /
      static_cast<double>(std::max<std::uint64_t>(1, appends));
  std::filesystem::remove_all(journal);
  return stats;
}

}  // namespace

void layer_metrics(const Workload& w, const std::string& dir, double rate,
                   const WireReadings& wire, const PathTiming& path,
                   Outcome& out) {
  const double cursor_ns = cursor_ns_per_event(w);
  out.layer("trace.open_ms", w.open_ms, "ms");
  out.layer("trace.cursor_ns_per_event", cursor_ns, "ns");

  const CoreStats core = core_pass(w);
  out.layer("core.arrive_ns_mean", core.arrive_ns, "ns");
  out.layer("core.depart_ns_mean", core.depart_ns, "ns");
  out.layer("core.open_bins_mean", core.open_bins_mean, "count");
  out.layer("core.bins_opened", core.bins_opened, "count");

  out.layer("obs.observer_slowdown", observer_slowdown(w), "ratio");

  out.layer("net.client_latency_us_p90", wire.client_p90_us, "us");
  out.layer("net.client_latency_us_p99", wire.client_p99_us, "us");
  out.layer("net.server_latency_us_p50", wire.server_p50_us, "us");
  out.layer("net.server_latency_us_p99", wire.server_p99_us, "us");
  out.layer("net.outside_server_us_p50",
            wire.client_p50_us - wire.server_p50_us, "us");
  out.layer("net.frame_codec_ns", frame_codec_ns(w), "ns");
  out.layer("net.bytes_per_op", wire.bytes_per_op, "bytes");
  out.layer("net.requests_per_flush", wire.requests_per_flush, "count");
  out.layer("net.arrive_us_p50", wire.arrive_p50_us, "us");
  out.layer("net.depart_us_p50", wire.depart_p50_us, "us");
  out.layer("net.query_us_p50", wire.query_p50_us, "us");
  out.layer("net.backpressure_share", wire.backpressure_share, "share");
  out.layer("net.decode_errors", wire.decode_errors, "count");

  const double gate_ns = gate_ns_per_job(w);
  out.layer("tenancy.admit_ns_mean", gate_ns, "ns");
  out.layer("tenancy.deny_share", wire.deny_share, "share");

  const CloudStats cloud = cloud_pass(w, dir, rate);
  out.layer("cloud.submit_ns_mean", cloud.submit_ns, "ns");
  out.layer("cloud.completion_us_p50", cloud.completion_p50_us, "us");
  out.layer("cloud.completion_us_p99", cloud.completion_p99_us, "us");
  out.layer("cloud.placement_latency_us_p50", wire.placement_p50_us, "us");
  out.layer("cloud.batch_size_mean", wire.batch_size_mean, "count");
  out.layer("cloud.queue_depth_max", cloud.queue_depth_max, "count");
  out.layer("cloud.queue_full_share", cloud.queue_full_share, "share");

  const PersistStats persist = persist_pass(w, dir, wire.batch_size_mean);
  out.layer("persist.append_ns_mean", persist.append_ns, "ns");
  out.layer("persist.bytes_per_op", persist.bytes_per_op, "bytes");
  out.layer("persist.commit_us_mean", persist.commit_us, "us");
  out.layer("persist.fsyncs_per_kop", wire.fsyncs_per_kop, "count");

  out.layer("loadgen.late_ms_p99", wire.late_ms_p99, "ms");

  // Self-time shares of the end-to-end path. A serial replay spends each
  // event in the trace cursor and the Dispatcher. A request over the wire
  // spends its client-side p50 outside the server (client, kernel,
  // response write), in the gate, in the net front-end (decode, route,
  // completion hand-off), in the shard queue and worker (cloud), in the
  // policy (core) and in the journal (persist).
  const double core_ns = core.arrive_share * core.arrive_ns +
                         (1.0 - core.arrive_share) * core.depart_ns;
  double trace_ns = 0.0;
  double tenancy_ns = 0.0;
  double cloud_ns = 0.0;
  double persist_ns = 0.0;
  double server_ns = 0.0;
  double client_ns = 0.0;
  double total_ns = path.ns_per_event;
  if (path.over_wire) {
    total_ns = wire.client_p50_us * 1e3;
    const double server = wire.server_p50_us * 1e3;
    const double placement = wire.placement_p50_us * 1e3;
    // A request waits for its batch's whole group commit, which lands after
    // the shard records placement latency and before the completion fires.
    const double commit_ns = persist.commit_us * 1e3;
    persist_ns = persist.append_ns + commit_ns;
    tenancy_ns = core.arrive_share * gate_ns;
    cloud_ns = std::max(0.0, placement - core_ns - persist.append_ns) +
               cloud.submit_ns;
    server_ns = std::max(0.0, server - placement - cloud.submit_ns -
                                  tenancy_ns - commit_ns);
    client_ns = std::max(0.0, total_ns - server);
  } else {
    trace_ns = cursor_ns;
  }
  out.layer("share.trace", trace_ns / total_ns, "share");
  out.layer("share.core", core_ns / total_ns, "share");
  out.layer("share.tenancy", tenancy_ns / total_ns, "share");
  out.layer("share.cloud", cloud_ns / total_ns, "share");
  out.layer("share.persist", persist_ns / total_ns, "share");
  out.layer("share.net_server", server_ns / total_ns, "share");
  out.layer("share.net_client", client_ns / total_ns, "share");
}

}  // namespace perfbench

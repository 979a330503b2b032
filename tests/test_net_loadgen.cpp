// Load-generator tests against a real loopback server: closed-loop
// accounting must be exact (every slot terminates, ok + typed errors ==
// requests_sent), open loop must pace and drain cleanly, a trace must
// arrive whole and with its tenant labels in either pacing, an open-loop
// latency must count the send's own lateness, and the latency order
// statistics must be ordered. Throughput numbers live in
// bench/bench_net.cpp; here we only assert structure.
#include "net/loadgen.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cloud/sharded_dispatcher.hpp"
#include "core/policies/registry.hpp"
#include "gen/uniform.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "tenancy/arbiter.hpp"
#include "tenancy/gate.hpp"
#include "trace/writer.hpp"

namespace dvbp::net {
namespace {

cloud::ShardedDispatcher::PolicyFactory first_fit_factory() {
  return [](std::size_t) { return make_policy("FirstFit"); };
}

cloud::ShardedOptions service_options(std::size_t shards) {
  cloud::ShardedOptions opts;
  opts.shards = shards;
  return opts;
}

/// A 300-item trace whose item i is labelled tenant i % 3.
std::string labelled_trace(const std::string& name) {
  gen::UniformParams params;
  params.n = 300;
  params.d = 2;
  params.mu = 8;
  params.span = 50;
  params.bin_size = 6;
  Instance inst = gen::uniform_instance(params, 0xC0FFEE);
  for (ItemId i = 0; i < inst.size(); ++i) {
    inst.set_tenant(i, static_cast<TenantId>(i % 3));
  }
  const std::string path = ::testing::TempDir() + name;
  trace::TraceWriter::write_instance(inst, path);
  return path;
}

void check_accounting(const LoadgenResult& r) {
  EXPECT_EQ(r.ok + r.retry_later + r.shutting_down + r.bad_request +
                r.unknown_job + r.other_errors,
            r.requests_sent);
  EXPECT_EQ(r.samples, r.ok);
  EXPECT_GT(r.elapsed_s, 0.0);
  if (r.samples > 0) {
    EXPECT_LE(r.p50_ns, r.p99_ns);
    EXPECT_LE(r.p99_ns, r.p999_ns);
    EXPECT_LE(r.p999_ns, r.max_ns);
    EXPECT_GT(r.p50_ns, 0.0);
  }
}

TEST(NetLoadgen, ClosedLoopCountsAddUp) {
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(2));
  PlacementServer server(service);

  LoadgenOptions opts;
  opts.port = server.port();
  opts.connections = 2;
  opts.window = 16;
  opts.requests_per_connection = 1500;
  opts.depart_fraction = 0.4;

  const LoadgenResult r = run_loadgen(opts);
  // Closed loop retries RETRY_LATER internally, so every slot ends in a
  // terminal status and the totals are exact.
  EXPECT_EQ(r.ok + r.shutting_down + r.bad_request + r.unknown_job +
                r.other_errors,
            2u * 1500u);
  EXPECT_EQ(r.ok, 2u * 1500u);  // nothing here can fail
  check_accounting(r);
  EXPECT_GT(r.throughput_rps, 0.0);

  // The service really applied that many ops.
  service.drain();
  EXPECT_EQ(service.ops_applied(), 2u * 1500u);

  // Wind down over the wire and confirm the hash is a real value.
  Client client("127.0.0.1", server.port());
  const Response drained = client.drain();
  ASSERT_EQ(drained.status, Status::kOk);
  EXPECT_NE(drained.packing_hash, 0u);
  server.wait();
}

TEST(NetLoadgen, OpenLoopPacesAndDrains) {
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(2));
  PlacementServer server(service);

  LoadgenOptions opts;
  opts.port = server.port();
  opts.connections = 1;
  opts.open_loop_rate = 5000.0;
  opts.duration_s = 0.4;
  opts.depart_fraction = 0.3;

  const LoadgenResult r = run_loadgen(opts);
  check_accounting(r);
  EXPECT_GT(r.requests_sent, 0u);
  EXPECT_GT(r.ok, 0u);
  // The pacer must stay in the ballpark of rate * duration even when the
  // single-core box is busy: bounded above by the schedule itself.
  EXPECT_LE(r.requests_sent, 5000.0 * 0.4 * 1.5 + 64);
  EXPECT_GE(r.elapsed_s, 0.3);

  server.stop();
}

TEST(NetLoadgen, TraceReplayDeliversEveryEvent) {
  // Replay a binary trace over the wire: items are partitioned across
  // connections by id, each item's departure waits for its own arrival's
  // JobId, and every one of the 2n events must terminate OK -- the
  // service ends up having applied exactly the trace.
  const Instance inst = [] {
    gen::UniformParams params;
    params.n = 300;
    params.d = 2;
    params.mu = 8;
    params.span = 50;
    params.bin_size = 6;
    return gen::uniform_instance(params, 0xC0FFEE);
  }();
  const std::string trace_path =
      ::testing::TempDir() + "loadgen_replay.trc";
  trace::TraceWriter::write_instance(inst, trace_path);

  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(2));
  PlacementServer server(service);

  LoadgenOptions opts;
  opts.port = server.port();
  opts.connections = 3;
  opts.window = 8;
  opts.trace_path = trace_path;

  const LoadgenResult r = run_loadgen(opts);
  check_accounting(r);
  EXPECT_EQ(r.ok, 2 * inst.size());
  service.drain();
  EXPECT_EQ(service.ops_applied(), 2 * inst.size());
  server.stop();
  std::remove(trace_path.c_str());
}

TEST(NetLoadgen, TraceReplayCarriesTenantLabels) {
  // Every arrival reaches the gate under its row's tenant, not kNoTenant
  // (which the gate books to tenant 0's slot).
  const std::string trace_path = labelled_trace("loadgen_tenants.trc");
  tenancy::ArbiterConfig config;
  config.num_tenants = 3;  // no quota: every arrival is admitted
  tenancy::Arbiter arbiter(config);
  tenancy::AdmissionGate gate(arbiter);
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(2));
  ServerOptions sopts;
  sopts.gate = &gate;
  PlacementServer server(service, sopts);

  LoadgenOptions opts;
  opts.port = server.port();
  opts.connections = 2;
  opts.window = 8;
  opts.trace_path = trace_path;
  const LoadgenResult r = run_loadgen(opts);
  check_accounting(r);
  EXPECT_EQ(r.ok, 600u);
  for (TenantId t = 0; t < 3; ++t) {
    EXPECT_EQ(gate.admitted_jobs(t), 100u) << "tenant " << t;
  }
  server.stop();
  std::remove(trace_path.c_str());
}

TEST(NetLoadgen, OpenLoopTraceDeliversEveryEvent) {
  // Open pacing replays a trace to its end: at a rate the server keeps
  // up with, nothing is refused and the service applies exactly 2n ops.
  const std::string trace_path = labelled_trace("loadgen_open.trc");
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(2));
  PlacementServer server(service);

  LoadgenOptions opts;
  opts.port = server.port();
  opts.connections = 2;
  opts.open_loop_rate = 6000.0;
  opts.trace_path = trace_path;
  const LoadgenResult r = run_loadgen(opts);
  check_accounting(r);
  EXPECT_EQ(r.requests_sent, 600u);
  EXPECT_EQ(r.ok, 600u);
  EXPECT_GE(r.elapsed_s, 0.09);  // 300 ops per connection, 1/3 ms apart
  service.drain();
  EXPECT_EQ(service.ops_applied(), 600u);
  server.stop();
  std::remove(trace_path.c_str());
}

TEST(NetLoadgen, OpenLoopTraceDropsARefusedArrivalsDeparture) {
  // A tight gate quota refuses arrivals. Open pacing retries none of them
  // and never sends their departures, so the run still ends, and every
  // departure it does send finds its job.
  const std::string trace_path = labelled_trace("loadgen_refused.trc");
  tenancy::ArbiterConfig config;
  config.num_tenants = 3;
  config.capacity_units = 1.0;
  tenancy::Arbiter arbiter(config);
  tenancy::AdmissionGate gate(arbiter);
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(2));
  ServerOptions sopts;
  sopts.gate = &gate;
  PlacementServer server(service, sopts);

  LoadgenOptions opts;
  opts.port = server.port();
  opts.connections = 2;
  opts.open_loop_rate = 6000.0;
  opts.trace_path = trace_path;
  const LoadgenResult r = run_loadgen(opts);
  check_accounting(r);
  ASSERT_GT(r.retry_later, 0u);
  EXPECT_EQ(r.retry_later, gate.denied_total());
  EXPECT_EQ(r.unknown_job, 0u);
  // Each refused arrival takes its departure with it.
  EXPECT_EQ(r.requests_sent + r.retry_later, 600u);
  EXPECT_EQ(r.ok, 2 * gate.admitted_total());
  server.stop();
  std::remove(trace_path.c_str());
}

TEST(NetLoadgen, OpenLoopLatencyCountsLateSends) {
  // At a billion requests a second every op is due at once, so all but
  // the first go out late. Timed from its due time, each OK latency is
  // its lateness plus the round trip: the median cannot sit below the
  // median lateness.
  const std::string trace_path = labelled_trace("loadgen_late.trc");
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(2));
  PlacementServer server(service);

  LoadgenOptions opts;
  opts.port = server.port();
  opts.open_loop_rate = 1e9;
  opts.trace_path = trace_path;
  const LoadgenResult r = run_loadgen(opts);
  check_accounting(r);
  ASSERT_EQ(r.ok, 600u);
  EXPECT_GT(r.late_p99_ns, 0.0);
  EXPECT_GE(r.p50_ns, r.late_p50_ns);
  EXPECT_GE(r.p99_ns, r.late_p99_ns);
  server.stop();
  std::remove(trace_path.c_str());
}

TEST(NetLoadgen, DeterministicSeedsGiveSameOpCount) {
  // Same seed, same script: the number of ops applied by the service is a
  // deterministic function of (seed, connections, requests, fraction).
  std::uint64_t applied[2] = {0, 0};
  for (int round = 0; round < 2; ++round) {
    cloud::ShardedDispatcher service(2, first_fit_factory(),
                                     service_options(1));
    PlacementServer server(service);
    LoadgenOptions opts;
    opts.port = server.port();
    opts.connections = 1;
    opts.window = 8;
    opts.requests_per_connection = 500;
    opts.seed = 99;
    const LoadgenResult r = run_loadgen(opts);
    EXPECT_EQ(r.ok, 500u);
    service.drain();
    applied[round] = service.ops_applied();
    server.stop();
  }
  EXPECT_EQ(applied[0], applied[1]);
}

}  // namespace
}  // namespace dvbp::net

// Overload rung for the binary-RPC placement server (docs/PROTOCOL.md):
// spins up a PlacementServer over loopback with small shard queues and
// drives it in open loop at a fixed rate well above what it can apply.
// The server must shed load with RETRY_LATER instead of buffering without
// bound. perfbench's wire workloads cover the closed-loop and paced
// latency of the full stack; nothing else overruns the server.
//
// How much the shards apply before their queues fill varies severalfold
// from run to run, so the rung runs kRuns times, each against a fresh
// service, and the record lists every run.
//
// Unlike the microbenchmarks this is not a google-benchmark binary (it
// measures a client/server pair, not a function), so it emits its own
// JSON: {"context":{...},"benchmarks":[{...}]} -- curated record in
// bench/BENCH_net.json, regenerated via
// scripts/bench_baseline.sh --target=net.
//
// Flags: --out=FILE --smoke (one 0.2 s run at 20,000 req/s)
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "cloud/sharded_dispatcher.hpp"
#include "core/policies/registry.hpp"
#include "harness/cli.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "obs/json.hpp"

namespace {

constexpr std::size_t kShards = 8;
constexpr std::size_t kConnections = 2;
constexpr int kRuns = 5;

/// One run against a fresh service: 8 FirstFit shards with 64-op queues,
/// all stepped by the server's one event loop, 256 requests in flight per
/// connection.
dvbp::net::LoadgenResult overload(double rate, double duration_s) {
  using namespace dvbp;
  net::LoadgenOptions lopts;  // the default synthetic mix
  lopts.connections = kConnections;
  lopts.seed = 43;
  lopts.open_loop_rate = rate;
  lopts.duration_s = duration_s;
  cloud::ShardedOptions service_opts;
  service_opts.shards = kShards;
  service_opts.queue_capacity = 64;
  cloud::ShardedCore service(
      lopts.dim, [](std::size_t) { return make_policy("FirstFit"); },
      service_opts);
  net::ServerOptions server_opts;
  server_opts.max_inflight_per_conn = 256;
  net::PlacementServer server(service, server_opts);
  lopts.port = server.port();
  const net::LoadgenResult r = net::run_loadgen(lopts);
  server.stop();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dvbp;
  using obs::json_number;
  const harness::Args args(argc, argv);
  for (const std::string& key : args.keys()) {
    if (key != "out" && key != "smoke") {
      std::cerr << "bench_net: unknown flag '--" << key
                << "' (flags: --out=FILE --smoke)\n";
      return 2;
    }
  }
  const bool smoke = args.get_bool("smoke", false);
  const std::string out_path = args.get("out", "");
  harness::require_writable_file("out", out_path);
  const double rate = smoke ? 20000.0 : 300000.0;
  const double duration_s = smoke ? 0.2 : 1.0;
  const net::LoadgenOptions defaults;

  std::string json = "{\n  \"context\": {";
  json += "\"bench\":\"net\"";
  json += ",\"shards\":" + std::to_string(kShards);
  json += ",\"dim\":" + std::to_string(defaults.dim);
  json += ",\"depart_fraction\":" + json_number(defaults.depart_fraction);
  json += ",\"smoke\":" + std::string(smoke ? "true" : "false");
  json += "},\n  \"benchmarks\": [\n";
  const int runs = smoke ? 1 : kRuns;
  for (int run = 0; run < runs; ++run) {
    const net::LoadgenResult r = overload(rate, duration_s);
    std::cout << "open/overload run " << run << ": ok=" << r.ok
              << " retry_later=" << r.retry_later
              << " rps=" << static_cast<std::uint64_t>(r.throughput_rps)
              << " p50_us=" << r.p50_ns / 1e3 << " p99_us=" << r.p99_ns / 1e3
              << " late_p99_us=" << r.late_p99_ns / 1e3 << std::endl;
    json += "    {\"name\":\"open/overload\"";
    json += ",\"run\":" + std::to_string(run);
    json += ",\"connections\":" + std::to_string(kConnections);
    json += ",\"target_rate_rps\":" + json_number(rate);
    json += ",\"requests_sent\":" + std::to_string(r.requests_sent);
    json += ",\"ok\":" + std::to_string(r.ok);
    json += ",\"retry_later\":" + std::to_string(r.retry_later);
    json += ",\"errors\":" + std::to_string(r.bad_request + r.unknown_job +
                                            r.shutting_down + r.other_errors);
    json += ",\"elapsed_s\":" + json_number(r.elapsed_s);
    json += ",\"throughput_rps\":" + json_number(r.throughput_rps);
    json += ",\"p50_ns\":" + json_number(r.p50_ns);
    json += ",\"p99_ns\":" + json_number(r.p99_ns);
    json += ",\"p999_ns\":" + json_number(r.p999_ns);
    json += ",\"max_ns\":" + json_number(r.max_ns);
    json += ",\"late_p50_ns\":" + json_number(r.late_p50_ns);
    json += ",\"late_p99_ns\":" + json_number(r.late_p99_ns);
    json += run + 1 < runs ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json;
    std::cout << "wrote " << out_path << std::endl;
  } else {
    std::cout << json;
  }
  return 0;
}

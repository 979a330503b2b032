// Load generator for the placement server (bench/bench_net.cpp, `harness
// loadgen`). One worker thread per connection pairs an op source with a
// pacing rule; any source goes with either pacing.
//
//   * Sources: the synthetic arrive/depart mix, or (trace_path set) the
//     connection's share of a binary trace (src/trace/): items with
//     id % connections == its index, in trace order, each arrival with its
//     row's tenant label. A trace runs to its end; a departure whose
//     arrival is still in flight waits, so the server never sees a depart
//     before its arrive.
//   * Closed pacing (open_loop_rate == 0): keep `window` requests in
//     flight. Latency runs from send. A RETRY_LATER op is offered again:
//     the synthetic slot sends a fresh op (a refused depart's job goes
//     back to the live set), a trace event returns to its share's front.
//   * Open pacing (open_loop_rate > 0): the connection's k-th op is due at
//     start + k * connections / open_loop_rate, whatever the server does.
//     Latency runs from the due time, so a late send counts its own wait,
//     and late_p50_ns / late_p99_ns say how late sends went. A refused op
//     is counted, not retried; a refused trace arrival drops its departure.
//
// Between sends a worker blocks in Client::recv_response until a response
// arrives or its next op is 30 us from due, and then polls without blocking
// until it is. Latencies are recorded exactly (one sample per OK response),
// so p999 is a real order statistic.
#pragma once

#include <cstdint>
#include <string>

#include "core/types.hpp"

namespace dvbp::net {

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 1;
  std::size_t dim = 2;
  /// Fraction of requests that depart a previously admitted job (the rest
  /// are arrivals); drawn per request from a per-connection PRNG.
  double depart_fraction = 0.45;
  std::uint64_t seed = 42;

  // Closed pacing: requests in flight per connection, and the synthetic
  // mix's ops per connection that end in a status other than RETRY_LATER.
  std::size_t window = 64;
  std::uint64_t requests_per_connection = 10000;

  // Open pacing: aggregate target rate (requests/s across connections);
  // 0 selects closed pacing. The synthetic mix runs `duration_s` seconds.
  double open_loop_rate = 0.0;
  double duration_s = 1.0;

  // A binary trace (docs/TRACES.md) replacing the synthetic mix, which
  // leaves dim, depart_fraction, seed, requests_per_connection and
  // duration_s unread.
  std::string trace_path;
};

struct LoadgenResult {
  std::uint64_t requests_sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t retry_later = 0;
  std::uint64_t shutting_down = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t unknown_job = 0;
  std::uint64_t other_errors = 0;
  double elapsed_s = 0.0;
  /// OK responses per wall second (applied placements + departures).
  double throughput_rps = 0.0;
  // Exact order statistics over OK-response latencies, nanoseconds.
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double max_ns = 0.0;
  std::uint64_t samples = 0;
  // Open pacing: order statistics over every send's lateness (the moment
  // its burst went to the socket minus its due time), nanoseconds; 0 in
  // closed pacing.
  double late_p50_ns = 0.0;
  double late_p99_ns = 0.0;
};

/// Runs the configured workload to completion and aggregates across
/// connections. Throws NetError when a connection cannot be established or
/// dies mid-run (the server closing a draining connection is an error
/// here: the loadgen is meant to finish before any drain).
LoadgenResult run_loadgen(const LoadgenOptions& options);

}  // namespace dvbp::net

// The service stack under test and the benchmark's own load generator.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/sharded_dispatcher.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "tenancy/arbiter.hpp"
#include "tenancy/gate.hpp"

namespace perfbench {

/// Stack configuration, fixed for every workload: what `harness serve`
/// builds by default, with journaling on.
inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kQueueCapacity = 4096;
inline constexpr std::size_t kMaxInflight = 1024;
inline constexpr std::size_t kFsyncIntervalOps = 256;
inline constexpr const char* kStackPolicy = "MoveToFront";
inline constexpr std::uint64_t kPolicySeed = 0xD1CEu;

/// Arbiter settings: every tenant gets a quota of this many bin units, far
/// above what any workload books, so the gate decides every arrival but
/// never denies one.
inline constexpr double kQuotaUnitsPerTenant = 64.0;
dvbp::tenancy::ArbiterConfig arbiter_config(std::uint32_t tenants);

/// Sharded-service options of the stack (journal under `journal_dir`).
dvbp::cloud::ShardedOptions stack_sharded_options(
    std::uint32_t tenants, const std::string& journal_dir,
    dvbp::obs::MetricRegistry* metrics);

/// The placement service built in-process from public constructors, the
/// way `harness serve` does (MoveToFront, round-robin router, queue 4096,
/// max-inflight 1024, one event loop, registry attached, journal with
/// fsync=interval/256), plus the two layers `serve` cannot switch on yet:
/// per-shard tenant accounting and the admission gate. Port is ephemeral.
struct Stack {
  Stack(std::size_t dim, std::uint32_t tenants, const std::string& journal_dir);

  dvbp::obs::MetricRegistry registry;
  dvbp::tenancy::Arbiter arbiter;
  dvbp::tenancy::AdmissionGate gate;
  dvbp::cloud::ShardedDispatcher service;
  dvbp::net::PlacementServer server;
};

/// Builds a stack for `workload` with its journal under a fresh directory
/// in `dir`, tears it down, and returns the build time (a set-up step).
double build_stack_seconds(const Workload& workload, const std::string& dir);

/// Creates `parent`/`stem`-<n>, a new empty directory.
std::string fresh_dir(const std::string& parent, const std::string& stem);

/// How the generator offers the op stream.
struct DriveConfig {
  /// Open loop: op i is due at start + i / rate, whatever the responses do.
  /// Closed loop: at most `window` requests in flight.
  bool open_loop = false;
  double rate = 0.0;
  std::size_t window = 128;
  /// Closed loop only: stop issuing arrivals after this many seconds (the
  /// departures of admitted jobs still go out), and wrap around the op
  /// stream, time-shifted past its last departure, until then.
  double seconds = 0.0;
};

/// Result of one end-to-end wire run on a fresh stack.
struct WireRun {
  double throughput_ops_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double cost_ratio = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t not_ok = 0;
  WireReadings readings;
};

/// Builds a fresh stack with its journal under `dir`, drives `workload`'s op
/// stream through it, drains it, and runs the correctness checks into
/// `out`: one response per request, no job active after the last
/// departure, drain hash == snapshot hash, and the drained packing valid
/// against the instance rebuilt from job_item records.
WireRun run_wire_once(const Workload& workload, const DriveConfig& config,
                      const std::string& dir, SpanLog& spans, Outcome& out);

}  // namespace perfbench

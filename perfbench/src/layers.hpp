// Per-layer decomposition of a traced run. Each pass feeds the workload's
// op stream to one layer through its public functions and times the calls
// from outside; the wire readings come from the traced end-to-end run (or,
// on replay_dense, from a short wire pass over its op stream).
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// What a traced wire run contributes: client-side latencies, the server's
/// own registry (dvbp.net.*, dvbp.shard.*, dvbp.persist.*), and the gate.
struct WireReadings {
  double client_p50_us = 0.0;
  double client_p90_us = 0.0;
  double client_p99_us = 0.0;
  double arrive_p50_us = 0.0;
  double depart_p50_us = 0.0;
  double query_p50_us = 0.0;
  double server_p50_us = 0.0;
  double server_p99_us = 0.0;
  double placement_p50_us = 0.0;
  double bytes_per_op = 0.0;
  double requests_per_flush = 0.0;
  double backpressure_share = 0.0;
  double decode_errors = 0.0;
  double deny_share = 0.0;
  double batch_size_mean = 1.0;
  double fsyncs_per_kop = 0.0;
  double late_ms_p99 = 0.0;
};

/// How the workload's end-to-end path is timed, for the self-time shares:
/// per event of a serial replay, or per request over the wire.
struct PathTiming {
  bool over_wire = false;
  /// replay_dense: wall time per replayed event.
  double ns_per_event = 0.0;
};

/// Runs every decomposition pass over `workload` and emits all per-layer
/// metrics into `out`. `dir` holds scratch journals; `rate` paces the cloud
/// pass like the workload's open loop (0: windowed, as fast as it goes).
void layer_metrics(const Workload& workload, const std::string& dir,
                   double rate, const WireReadings& wire,
                   const PathTiming& path, Outcome& out);

}  // namespace perfbench

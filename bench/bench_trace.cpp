// Trace data-plane throughput ladder (docs/TRACES.md): how fast can the
// harness move a binary trace from disk into placement decisions?
//
// Five rungs per dimension, all on one synthetic uniform workload that is
// first written to a temp trace file (so every rung measures the real
// mmap-backed format, not an in-memory shortcut):
//   write        TraceWriter::write_instance -- columnar assemble + CRC +
//                fsync
//   open         the validated TraceReader construction: mmap, size and
//                layout checks, the CRC over every byte, the row scan
//   materialize  TraceReader::materialize -- the whole trace as an Instance
//   ingest       TraceCursor sweep of all 2n events (zero-copy streaming
//                read; the acceptance floor for the d=2 rung is 1M
//                events/s)
//   replay       full streaming replay into a Dispatcher under FirstFit --
//                packed events/s, the end-to-end number
// open and materialize take tens of milliseconds, so each reports the
// median of kSetupReps runs; the other rungs run once.
//
// Like bench_net/bench_migration this is not a google-benchmark binary
// (it reports domain throughput), so it emits its own
// {"context":...,"benchmarks":[...]} JSON. Curated record:
// bench/BENCH_trace.json, regenerated via
// scripts/bench_baseline.sh --target=trace.
//
// Flags: --n=500000 --d=2,5 --mu=12 --span=100000 --bin-size=400
//        --policy=FirstFit --seed=7 --out=FILE --smoke
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/policies/registry.hpp"
#include "gen/uniform.hpp"
#include "harness/cli.hpp"
#include "obs/json.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

namespace {

using namespace dvbp;

constexpr std::uint64_t kPolicySeed = 0xD1CEu;
constexpr int kSetupReps = 5;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Median wall time of `reps` calls of `run`.
template <typename Fn>
double median_seconds(int reps, Fn&& run) {
  std::vector<double> walls;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    run();
    walls.push_back(seconds_since(start));
  }
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

struct Rung {
  std::string name;
  std::string workload;
  std::string rung;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_s = 0.0;
  double mb_per_s = 0.0;   // all but replay: file bytes over wall time
  double cost = 0.0;       // replay only
  std::uint64_t bins = 0;  // replay only
};

void append_rung_json(std::string& out, const Rung& r) {
  using obs::json_number;
  out += "    {\"name\":\"" + r.name + "\"";
  out += ",\"workload\":\"" + r.workload + "\"";
  out += ",\"rung\":\"" + r.rung + "\"";
  out += ",\"events\":" + std::to_string(r.events);
  out += ",\"wall_s\":" + json_number(r.wall_s);
  out += ",\"events_per_s\":" + json_number(r.events_per_s);
  out += ",\"mb_per_s\":" + json_number(r.mb_per_s);
  if (r.rung == "replay") {
    out += ",\"cost\":" + json_number(r.cost);
    out += ",\"bins\":" + std::to_string(r.bins);
  }
  out += "}";
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Args args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);

  const auto n =
      static_cast<std::size_t>(args.get_int("n", smoke ? 2000 : 500000));
  const std::vector<std::int64_t> dims = args.get_int_list(
      "d", std::vector<std::int64_t>{2, 5});
  const std::int64_t mu = args.get_int("mu", 12);
  // Wide span + large bin-size keep the active set (and so the replay's
  // open-bin count) realistic at n in the hundreds of thousands.
  const std::int64_t span = args.get_int("span", smoke ? 1000 : 100000);
  const std::int64_t bin_size = args.get_int("bin-size", smoke ? 40 : 400);
  const std::string policy_name = args.get("policy", "FirstFit");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const std::string out_path = args.get("out", "");

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string trace_path =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/bench_trace_workload.trc";

  std::vector<Rung> rungs;
  for (const std::int64_t d : dims) {
    const std::string workload = "uniform_d" + std::to_string(d);

    gen::UniformParams params;
    params.n = n;
    params.d = static_cast<std::size_t>(d);
    params.mu = mu;
    params.span = span;
    params.bin_size = bin_size;
    const Instance inst = gen::uniform_instance(params, seed);
    const std::uint64_t events = 2 * static_cast<std::uint64_t>(inst.size());

    // write
    auto start = std::chrono::steady_clock::now();
    trace::TraceWriter::write_instance(inst, trace_path);
    double wall = seconds_since(start);
    trace::TraceReader reader(trace_path);
    const double mb = static_cast<double>(reader.file_bytes()) / 1e6;
    rungs.push_back({workload + "/write", workload, "write", events, wall,
                     static_cast<double>(events) / wall, mb / wall, 0.0, 0});

    // open
    wall = median_seconds(kSetupReps, [&] {
      const trace::TraceReader opened(trace_path);
      if (opened.size() != inst.size()) std::cerr << "open: size mismatch\n";
    });
    rungs.push_back({workload + "/open", workload, "open", events, wall,
                     static_cast<double>(events) / wall, mb / wall, 0.0, 0});

    // materialize
    wall = median_seconds(kSetupReps, [&] {
      const Instance back = reader.materialize();
      if (back.size() != inst.size()) {
        std::cerr << "materialize: size mismatch\n";
      }
    });
    rungs.push_back({workload + "/materialize", workload, "materialize",
                     events, wall, static_cast<double>(events) / wall,
                     mb / wall, 0.0, 0});

    // ingest: pure streaming sweep; fold the timestamps into a sink so the
    // loop cannot be optimized away.
    trace::TraceCursor cursor(reader);
    trace::TraceEvent ev;
    double sink = 0.0;
    start = std::chrono::steady_clock::now();
    while (cursor.next(ev)) sink += ev.time;
    wall = seconds_since(start);
    if (sink < 0.0) std::cerr << "";  // keep `sink` observable
    rungs.push_back({workload + "/ingest", workload, "ingest", events, wall,
                     static_cast<double>(events) / wall, mb / wall, 0.0, 0});

    // replay
    const PolicyPtr policy = make_policy(policy_name, kPolicySeed);
    start = std::chrono::steady_clock::now();
    const trace::ReplayResult res = trace::replay_trace(reader, *policy);
    wall = seconds_since(start);
    rungs.push_back({workload + "/replay/" + policy_name, workload, "replay",
                     events, wall, static_cast<double>(events) / wall, 0.0,
                     res.cost, static_cast<std::uint64_t>(res.bins_opened)});

    for (std::size_t i = rungs.size() - 5; i < rungs.size(); ++i) {
      std::cout << rungs[i].name << ": " << rungs[i].events << " events in "
                << rungs[i].wall_s << "s = " << rungs[i].events_per_s
                << " events/s" << std::endl;
    }
  }
  std::remove(trace_path.c_str());

  std::string json = "{\n  \"context\": {";
  json += "\"bench\":\"trace\"";
  json += ",\"n\":" + std::to_string(n);
  json += ",\"mu\":" + std::to_string(mu);
  json += ",\"span\":" + std::to_string(span);
  json += ",\"bin_size\":" + std::to_string(bin_size);
  json += ",\"policy\":\"" + policy_name + "\"";
  json += ",\"seed\":" + std::to_string(seed);
  json += ",\"smoke\":" + std::string(smoke ? "true" : "false");
  json += "},\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    append_rung_json(json, rungs[i]);
    if (i + 1 < rungs.size()) json += ",";
    json += "\n";
  }
  json += "  ]\n}\n";

  if (!out_path.empty()) {
    harness::require_writable_file("--out", out_path);
    std::ofstream out(out_path);
    out << json;
    std::cout << "wrote " << out_path << std::endl;
  } else {
    std::cout << json;
  }
  return 0;
}

// The three workloads: how each generates its trace from the seed, and how
// each run measures it (README.md says why each was chosen).
#include <cmath>
#include <filesystem>
#include <iostream>

#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "core/simulator.hpp"
#include "gen/uniform.hpp"
#include "layers.hpp"
#include "stats/rng.hpp"
#include "trace/reduce.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "wire.hpp"

namespace perfbench {

using namespace dvbp;

namespace {

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 3;

// replay_dense: Table-2-style uniform items, d=5, sized so ~1000 bins stay
// open (bench_trace's --mu=200 --span=50000 --n=600000 density at 1/6 the
// length, so one replay takes well under a second).
constexpr std::size_t kDenseItems = 100000;
constexpr std::int64_t kDenseSpan = 8400;
constexpr std::int64_t kDenseMu = 200;
constexpr const char* kDensePolicy = "BestFit";

// Wire traces: Poisson arrivals (unit mean gap), durations uniform in
// [0.5, 1.5] x mean, item shapes and tenants resampled from the sample.
constexpr double kOpenMeanDuration = 120.0;     // tens of open bins
constexpr double kClosedMeanDuration = 1200.0;  // hundreds of open bins
constexpr std::size_t kClosedItems = 200000;    // one lap of the closed loop
constexpr double kClosedQueryShare = 0.02;
constexpr std::size_t kClosedWindow = 512;

/// On replay_dense's traced run: a closed-loop wire pass over its op
/// stream, which is where the net/cloud/persist readings come from.
constexpr double kWirePassSeconds = 1.5;

/// Opens a generated trace (timing the validating open) and derives the
/// op stream: the trace's event order, with a query before an event at
/// probability `query_share`.
Workload open_workload(const std::string& name, const std::string& policy,
                       const std::string& path, double query_share,
                       std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.policy = policy;
  const auto start = Clock::now();
  w.reader = std::make_unique<trace::TraceReader>(path);
  w.open_ms = seconds_since(start) * 1e3;
  const std::size_t n = w.reader->size();
  w.sizes.resize(n);
  w.tenants.resize(n);
  std::uint32_t max_tenant = 0;
  for (std::size_t i = 0; i < n; ++i) {
    w.reader->size_into(i, w.sizes[i]);
    w.tenants[i] = w.reader->tenant(i);
    if (w.tenants[i] != kNoTenant) max_tenant = std::max(max_tenant, w.tenants[i]);
  }
  w.num_tenants = max_tenant + 1;
  w.instance = w.reader->materialize();

  Xoshiro256pp rng(seed ^ 0x5EEDF00Du);
  trace::TraceCursor cursor(*w.reader);
  trace::TraceEvent ev;
  w.ops.reserve(2 * n + static_cast<std::size_t>(2.0 * n * query_share) + 16);
  while (cursor.next(ev)) {
    if (query_share > 0.0 && rng.uniform() < query_share) {
      w.ops.push_back({OpKind::kQuery, 0, ev.time});
    }
    w.ops.push_back({ev.kind == EventKind::kArrival ? OpKind::kArrive
                                                    : OpKind::kDepart,
                     static_cast<std::uint32_t>(ev.item), ev.time});
  }
  return w;
}

Workload make_azure_shaped(const std::string& name, std::uint64_t seed,
                           const std::string& dir,
                           const std::string& repo_root, std::size_t items,
                           double mean_duration, double query_share) {
  const trace::TraceReader sample(repo_root + "/data/sample_azure_1k.trc");
  Xoshiro256pp rng(seed);
  trace::TraceWriter writer(sample.dim(), /*with_tenants=*/true);
  RVec size;
  Time t = 0.0;
  for (std::size_t i = 0; i < items; ++i) {
    t += -std::log(1.0 - rng.uniform());
    const Time duration = mean_duration * rng.uniform(0.5, 1.5);
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sample.size()) - 1));
    sample.size_into(j, size);
    writer.add(t, t + duration, size, sample.tenant(j));
  }
  const std::string path = dir + "/" + name + ".trc";
  writer.write(path);
  return open_workload(name, kStackPolicy, path, query_share, seed);
}

}  // namespace

Workload make_replay_dense(std::uint64_t seed, const std::string& dir) {
  gen::UniformParams params;
  params.d = 5;
  params.n = kDenseItems;
  params.mu = kDenseMu;
  params.span = kDenseSpan;
  params.bin_size = 100;
  const Instance inst = gen::uniform_instance(params, seed);
  const std::string path = dir + "/replay_dense.trc";
  trace::TraceWriter::write_instance(inst, path);
  return open_workload("replay_dense", kDensePolicy, path, 0.0, seed);
}

Workload make_wire_open(std::uint64_t seed, const std::string& dir,
                        const std::string& repo_root, double rate,
                        double seconds) {
  // Two ops per item: the trace lasts exactly `seconds` at `rate`.
  const auto items = static_cast<std::size_t>(rate * seconds / 2.0);
  return make_azure_shaped("wire_open", seed, dir, repo_root, items,
                           kOpenMeanDuration, 0.0);
}

Workload make_wire_closed(std::uint64_t seed, const std::string& dir,
                          const std::string& repo_root) {
  return make_azure_shaped("wire_closed", seed, dir, repo_root, kClosedItems,
                           kClosedMeanDuration, kClosedQueryShare);
}

namespace {

std::string span_path(const Options& o) {
  return o.span_dir + "/" + o.workload + ".spans.csv";
}

void write_spans(const Options& o, const SpanLog& spans) {
  std::filesystem::create_directories(o.span_dir);
  spans.write_csv(span_path(o));
  std::cout << "spans: " << spans.spans().size() << " written to "
            << span_path(o) << '\n';
}

/// simulate() events per second on the workload's materialized trace:
/// median pass, over at least three passes and one second.
double simulate_rate(const Workload& w) {
  const PolicyPtr policy = make_policy(w.policy, kPolicySeed);
  std::vector<double> seconds;
  const auto begin = Clock::now();
  while (seconds.size() < 3 || seconds_since(begin) < 1.0) {
    const auto start = Clock::now();
    const SimResult res = simulate(w.instance, *policy);
    seconds.push_back(seconds_since(start));
    if (res.bins_opened == 0) throw std::logic_error("empty simulation");
  }
  return 2.0 * static_cast<double>(w.items()) / median(seconds);
}

}  // namespace

void run_replay_dense(const Options& o, Outcome& out) {
  std::vector<double> setup_s;
  std::vector<double> open_ms;
  Workload w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    w = make_replay_dense(o.seed, o.tmp_dir);
    setup_s.push_back(seconds_since(start));
    open_ms.push_back(w.open_ms);
  }
  w.open_ms = median(open_ms);
  const double events = 2.0 * static_cast<double>(w.items());

  // Warm-up pass, which is also the correctness gate: the streamed replay
  // and the batch engine must agree exactly.
  const PolicyPtr replay_policy = make_policy(w.policy, kPolicySeed);
  const PolicyPtr sim_policy = make_policy(w.policy, kPolicySeed);
  Packing replayed;
  trace::ReplayOptions ropts;
  ropts.packing_out = &replayed;
  const trace::ReplayResult ref =
      trace::replay_trace(*w.reader, *replay_policy, ropts);
  const SimResult sim = simulate(w.instance, *sim_policy);
  out.check(ref.cost == sim.cost && ref.bins_opened == sim.bins_opened &&
                packing_hash(replayed) == packing_hash(sim.packing),
            "replay_dense: replay_trace == simulate() in cost, bins and "
            "packing hash");

  // Timed passes alternate the two engines.
  std::uint64_t passes = 0;
  const auto timed = [&](double seconds, SpanLog& spans,
                         std::vector<double>& replay_s,
                         std::vector<double>& sim_s) {
    const auto start = Clock::now();
    do {
      auto t0 = Clock::now();
      const trace::ReplayResult rr = trace::replay_trace(*w.reader, *replay_policy);
      auto t1 = Clock::now();
      replay_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      spans.add(++passes, Span::kPass, to_ns(t0), to_ns(t1));
      out.check(rr.cost == ref.cost && rr.bins_opened == ref.bins_opened,
                "replay_dense: every replay pass reproduces the reference");
      t0 = Clock::now();
      const SimResult sr = simulate(w.instance, *sim_policy);
      t1 = Clock::now();
      sim_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      spans.add(++passes, Span::kPass, to_ns(t0), to_ns(t1));
      out.check(sr.cost == ref.cost && sr.bins_opened == ref.bins_opened,
                "replay_dense: every simulate() pass reproduces the reference");
    } while (seconds_since(start) < seconds);
  };

  SpanLog untraced(false);
  std::vector<double> replay_s;
  std::vector<double> sim_s;
  timed(o.trace ? o.seconds / 2.0 : o.seconds, untraced, replay_s, sim_s);
  out.attempted = static_cast<std::uint64_t>(events) * passes;

  const double lb = trace::streaming_lower_bounds(*w.reader).best();
  const double cost_ratio = ref.cost / lb;
  out.check(cost_ratio >= 1.0 - 1e-9, "replay_dense: cost >= Lemma-1 bound");

  out.metric("setup_s", median(setup_s), "s");
  out.metric("throughput_ops_per_s", events / median(replay_s), "ops/s");
  out.metric("latency_p50_ms", median(replay_s) * 1e3, "ms");
  out.metric("cost_ratio", cost_ratio, "ratio");
  if (!o.trace) return;

  SpanLog spans(true);
  std::vector<double> traced_replay_s;
  std::vector<double> traced_sim_s;
  const std::uint64_t before = passes;
  timed(o.seconds / 2.0, spans, traced_replay_s, traced_sim_s);
  out.attempted += static_cast<std::uint64_t>(events) * (passes - before);
  write_spans(o, spans);
  out.layer("core.simulate_events_per_s", events / median(sim_s), "events/s");
  out.layer("tracing.throughput_ratio",
            median(replay_s) / median(traced_replay_s), "ratio");
  out.layer("tracing.latency_ratio",
            median(traced_replay_s) / median(replay_s), "ratio");

  DriveConfig pass;
  pass.window = kClosedWindow;
  pass.seconds = kWirePassSeconds;
  SpanLog none(false);
  const WireRun wire = run_wire_once(w, pass, o.tmp_dir, none, out);
  PathTiming path;
  path.ns_per_event = median(replay_s) * 1e9 / events;
  layer_metrics(w, o.tmp_dir, 0.0, wire.readings, path, out);
}

void run_wire(const Options& o, Outcome& out) {
  const bool open = o.workload == "wire_open";
  // A traced run measures an untraced half and a traced half.
  const double run_s = o.trace ? o.seconds / 2.0 : o.seconds;
  std::vector<double> setup_s;
  std::vector<double> open_ms;
  Workload w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    w = open ? make_wire_open(o.seed, o.tmp_dir, o.repo_root, o.rate, run_s)
             : make_wire_closed(o.seed, o.tmp_dir, o.repo_root);
    const double trace_s = seconds_since(start);
    setup_s.push_back(trace_s + build_stack_seconds(w, o.tmp_dir));
    open_ms.push_back(w.open_ms);
  }
  w.open_ms = median(open_ms);

  DriveConfig cfg;
  cfg.open_loop = open;
  cfg.rate = o.rate;
  cfg.window = kClosedWindow;
  cfg.seconds = run_s;
  // Before the wire runs, so the batch engine always starts on a fresh heap.
  const double simulate_events_per_s = o.trace ? simulate_rate(w) : 0.0;
  SpanLog untraced(false);
  const WireRun run = run_wire_once(w, cfg, o.tmp_dir, untraced, out);
  out.attempted = run.attempted;
  out.failed = run.not_ok;

  out.metric("setup_s", median(setup_s), "s");
  out.metric("throughput_ops_per_s", run.throughput_ops_per_s, "ops/s");
  out.metric("latency_p50_ms", run.latency_p50_ms, "ms");
  out.metric("cost_ratio", run.cost_ratio, "ratio");
  if (!o.trace) return;

  SpanLog spans(true);
  const WireRun traced = run_wire_once(w, cfg, o.tmp_dir, spans, out);
  out.attempted += traced.attempted;
  out.failed += traced.not_ok;
  write_spans(o, spans);
  out.layer("core.simulate_events_per_s", simulate_events_per_s, "events/s");
  out.layer("tracing.throughput_ratio",
            traced.throughput_ops_per_s / run.throughput_ops_per_s, "ratio");
  out.layer("tracing.latency_ratio",
            traced.latency_p50_ms / run.latency_p50_ms, "ratio");
  PathTiming path;
  path.over_wire = true;
  layer_metrics(w, o.tmp_dir, open ? o.rate : 0.0, traced.readings, path, out);
}

}  // namespace perfbench

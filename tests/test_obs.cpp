// Tests for the observability subsystem: metric instruments and registry,
// JSONL tracer + sinks, engine instrumentation consistency, and the
// trace -> Packing round-trip guarantee (a trace is a complete, replayable
// account of a run).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>

#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/policies/registry.hpp"
#include "core/simulator.hpp"
#include "gen/uniform.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/replay.hpp"
#include "obs/trace.hpp"
#include "stats/rng.hpp"

namespace dvbp::obs {
namespace {

Instance small_instance(std::uint64_t seed, std::size_t n = 400,
                        std::size_t d = 2) {
  gen::UniformParams params;
  params.d = d;
  params.n = n;
  params.mu = 10;
  params.span = 120;
  params.bin_size = 7;
  return gen::uniform_instance(params, seed);
}

void expect_same_packing(const Packing& a, const Packing& b) {
  EXPECT_EQ(a.assignment(), b.assignment());
  ASSERT_EQ(a.num_bins(), b.num_bins());
  for (std::size_t i = 0; i < a.num_bins(); ++i) {
    const BinRecord& x = a.bins()[i];
    const BinRecord& y = b.bins()[i];
    EXPECT_EQ(x.id, y.id) << "bin " << i;
    EXPECT_DOUBLE_EQ(x.opened, y.opened) << "bin " << i;
    EXPECT_DOUBLE_EQ(x.closed, y.closed) << "bin " << i;
    EXPECT_EQ(x.items, y.items) << "bin " << i;
  }
}

// ---- Instruments -----------------------------------------------------------

TEST(Counter, CountsAndStartsAtZero) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(5.0);
  g.add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(HistogramTest, BucketsCountSumQuantile) {
  Histogram h({1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.5, 1.5, 3.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_GT(h.quantile(0.5), 0.0);
  EXPECT_LE(h.quantile(0.5), 2.0);
  // Overflow bucket clamps to the last bound.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(Histogram({1.0}).quantile(0.5), 0.0);  // empty
}

TEST(HistogramTest, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Registry, HandsOutStableInstruments) {
  MetricRegistry reg;
  Counter& a = reg.counter("dvbp.test.a_total");
  Counter& b = reg.counter("dvbp.test.a_total");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  reg.gauge("dvbp.test.level");
  reg.histogram("dvbp.test.latency_ns");
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Registry, RejectsKindClashes) {
  MetricRegistry reg;
  reg.counter("dvbp.test.x");
  EXPECT_THROW(reg.gauge("dvbp.test.x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("dvbp.test.x"), std::invalid_argument);
  reg.histogram("dvbp.test.h", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("dvbp.test.h", {1.0, 3.0}),
               std::invalid_argument);
  EXPECT_NO_THROW(reg.histogram("dvbp.test.h", {1.0, 2.0}));
}

TEST(Registry, SnapshotIsValidishJson) {
  MetricRegistry reg;
  reg.counter("dvbp.test.events_total").inc(7);
  reg.gauge("dvbp.test.level").set(1.5);
  reg.histogram("dvbp.test.latency_ns", {10.0, 20.0}).observe(12.0);
  const std::string json = reg.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  std::ptrdiff_t depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(scan_json_number(json, "dvbp.test.events_total"), 7.0);
  EXPECT_EQ(scan_json_number(json, "dvbp.test.level"), 1.5);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(ScopedTimerTest, RecordsIntoSinkAndSkipsNull) {
  Histogram h({1e12});
  {
    ScopedTimer t(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  {
    ScopedTimer t(nullptr);  // must be a no-op
  }
  EXPECT_EQ(h.count(), 1u);
}

// ---- JSON helpers ----------------------------------------------------------

TEST(Json, NumberRoundTripsThroughScan) {
  for (const double v : {0.0, 1.0, -3.25, 1e-9, 12345.6789, 1e99}) {
    const std::string line = "{\"x\":" + json_number(v) + "}";
    const auto back = scan_json_number(line, "x");
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_DOUBLE_EQ(*back, v);
  }
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, EscapesControlCharacters) {
  std::string out;
  append_json_escaped(out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\u0001");
}

TEST(Json, ScansStringsBoolsArrays) {
  const std::string line =
      "{\"ev\":\"place\",\"new_bin\":true,\"size\":[0.5,0.25],\"e\":false}";
  EXPECT_EQ(scan_json_string(line, "ev"), "place");
  EXPECT_EQ(scan_json_bool(line, "new_bin"), true);
  EXPECT_EQ(scan_json_bool(line, "e"), false);
  const auto arr = scan_json_number_array(line, "size");
  ASSERT_TRUE(arr.has_value());
  EXPECT_EQ(*arr, (std::vector<double>{0.5, 0.25}));
  EXPECT_FALSE(scan_json_number(line, "missing").has_value());
}

// ---- Sinks & tracer --------------------------------------------------------

TEST(TracerTest, NullSinkIsInactive) {
  Tracer none(nullptr);
  EXPECT_FALSE(none.active());
  Tracer null_sink(std::make_shared<NullSink>());
  EXPECT_FALSE(null_sink.active());
  null_sink.emit(TraceEvent{});
  EXPECT_EQ(null_sink.records_emitted(), 0u);
}

TEST(TracerTest, RingBufferKeepsMostRecent) {
  auto ring = std::make_shared<RingBufferSink>(3);
  Tracer tracer(ring);
  ASSERT_TRUE(tracer.active());
  for (int i = 0; i < 5; ++i) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kOpen;
    ev.time = i;
    ev.bin = static_cast<BinId>(i);
    tracer.emit(ev);
  }
  EXPECT_EQ(tracer.records_emitted(), 5u);
  EXPECT_EQ(ring->dropped(), 2u);
  const auto lines = ring->lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(scan_json_number(lines.front(), "bin"), 2.0);
  EXPECT_EQ(scan_json_number(lines.back(), "bin"), 4.0);
}

TEST(TracerTest, FileSinkWritesJsonlLines) {
  const std::string path = ::testing::TempDir() + "obs_file_sink.jsonl";
  {
    Tracer tracer(std::make_shared<FileSink>(path));
    TraceEvent ev;
    ev.kind = TraceEventKind::kArrival;
    ev.time = 1.5;
    ev.item = 3;
    const double size[2] = {0.5, 0.25};
    ev.size = std::span<const double>(size, 2);
    ev.open_bins = 2;
    tracer.emit(ev);
    tracer.flush();
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "{\"ev\":\"arrival\",\"t\":1.5,\"item\":3,"
            "\"size\":[0.5,0.25],\"open_bins\":2}");
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(TracerTest, FileSinkThrowsOnUnopenablePath) {
  EXPECT_THROW(FileSink("/nonexistent-dir/trace.jsonl"), std::runtime_error);
}

// ---- Engine instrumentation ------------------------------------------------

TEST(SimulateObserved, MetricsAreConsistentWithResult) {
  const Instance inst = small_instance(11);
  MetricRegistry reg;
  Observer observer(&reg);
  SimOptions opts;
  opts.observer = &observer;
  const SimResult result = simulate(inst, "FirstFit", opts);

  EXPECT_EQ(reg.counter("dvbp.alloc.arrivals_total").value(), inst.size());
  EXPECT_EQ(reg.counter("dvbp.alloc.departures_total").value(), inst.size());
  EXPECT_EQ(reg.counter("dvbp.alloc.placements_total").value(), inst.size());
  EXPECT_EQ(reg.counter("dvbp.alloc.bins_opened_total").value(),
            result.bins_opened);
  EXPECT_EQ(reg.counter("dvbp.alloc.bins_closed_total").value(),
            result.bins_opened);
  EXPECT_DOUBLE_EQ(reg.gauge("dvbp.alloc.open_bins").value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("dvbp.alloc.active_items").value(), 0.0);
  EXPECT_EQ(reg.histogram("dvbp.alloc.decision_latency_ns").count(),
            inst.size());
  // First Fit on this workload has contention, so some bins must reject.
  EXPECT_GT(reg.counter("dvbp.alloc.fit_failures_total").value(), 0u);
}

TEST(SimulateObserved, ObserverDoesNotChangeTheDecisions) {
  const Instance inst = small_instance(13);
  MetricRegistry reg;
  Tracer tracer(std::make_shared<RingBufferSink>());
  Observer observer(&reg, &tracer);
  SimOptions opts;
  opts.observer = &observer;
  const SimResult observed = simulate(inst, "BestFit", opts);
  const SimResult plain = simulate(inst, "BestFit");
  expect_same_packing(observed.packing, plain.packing);
  EXPECT_DOUBLE_EQ(observed.cost, plain.cost);
}

TEST(SimulateObserved, TraceRoundTripReconstructsThePacking) {
  for (const char* policy : {"MoveToFront", "FirstFit", "BestFit"}) {
    const Instance inst = small_instance(17);
    auto ring = std::make_shared<RingBufferSink>();
    Tracer tracer(ring);
    Observer observer(nullptr, &tracer);
    SimOptions opts;
    opts.audit = true;
    opts.observer = &observer;
    const SimResult result = simulate(inst, policy, opts);
    const Packing replayed = replay_packing(ring->lines());
    expect_same_packing(result.packing, replayed);
  }
}

TEST(SimulateObserved, TraceRoundTripUnderAugmentation) {
  const Instance inst = small_instance(19);
  auto ring = std::make_shared<RingBufferSink>();
  Tracer tracer(ring);
  Observer observer(nullptr, &tracer);
  SimOptions opts;
  opts.bin_capacity = 1.4;
  opts.observer = &observer;
  const SimResult result = simulate(inst, "FirstFit", opts);
  expect_same_packing(result.packing, replay_packing(ring->lines()));
}

TEST(SimulateObserved, TraceRoundTripThroughAFile) {
  const std::string path = ::testing::TempDir() + "obs_roundtrip.jsonl";
  const Instance inst = small_instance(23);
  SimResult result;
  {
    Tracer tracer(std::make_shared<FileSink>(path));
    Observer observer(nullptr, &tracer);
    SimOptions opts;
    opts.observer = &observer;
    result = simulate(inst, "MoveToFront", opts);
  }
  expect_same_packing(result.packing, replay_packing_file(path));
  std::remove(path.c_str());
}

TEST(SimulateObserved, RejectRecordsMatchFitFailureCounter) {
  const Instance inst = small_instance(29, 200);
  MetricRegistry reg;
  auto ring = std::make_shared<RingBufferSink>();
  Tracer tracer(ring);
  Observer observer(&reg, &tracer);
  SimOptions opts;
  opts.observer = &observer;
  simulate(inst, "FirstFit", opts);

  std::uint64_t rejects = 0;
  std::uint64_t rejections_in_places = 0;
  for (const std::string& line : ring->lines()) {
    const auto kind = scan_json_string(line, "ev");
    ASSERT_TRUE(kind.has_value());
    if (*kind == "reject") ++rejects;
    if (*kind == "place") {
      rejections_in_places += static_cast<std::uint64_t>(
          scan_json_number(line, "rejections").value());
    }
  }
  EXPECT_EQ(rejects, reg.counter("dvbp.alloc.fit_failures_total").value());
  EXPECT_EQ(rejects, rejections_in_places);
}

TEST(DispatcherObserved, EmitsTheSameTraceAsTheSimulator) {
  const Instance inst = small_instance(31, 300);
  const auto events = build_event_stream(inst);

  auto sim_ring = std::make_shared<RingBufferSink>();
  Tracer sim_tracer(sim_ring);
  Observer sim_observer(nullptr, &sim_tracer);
  SimOptions opts;
  opts.observer = &sim_observer;
  simulate(inst, "MoveToFront", opts);

  auto live_ring = std::make_shared<RingBufferSink>();
  Tracer live_tracer(live_ring);
  Observer live_observer(nullptr, &live_tracer);
  PolicyPtr policy = make_policy("MoveToFront");
  Dispatcher dispatcher(inst.dim(), *policy, 1.0, &live_observer);
  for (const Event& ev : events) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      dispatcher.arrive(item.arrival, item.size, item.departure);
    } else {
      dispatcher.depart(ev.time, item.id);
    }
  }
  EXPECT_EQ(sim_ring->lines(), live_ring->lines());
}

TEST(DispatcherObserved, MetricsTrackLiveState) {
  MetricRegistry reg;
  Observer observer(&reg);
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy, 1.0, &observer);
  const auto a = dispatcher.arrive(0.0, RVec{0.6});
  const auto b = dispatcher.arrive(0.0, RVec{0.6});  // must open a 2nd bin
  EXPECT_NE(a.bin, b.bin);
  EXPECT_DOUBLE_EQ(reg.gauge("dvbp.alloc.open_bins").value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("dvbp.alloc.active_items").value(), 2.0);
  EXPECT_EQ(reg.counter("dvbp.alloc.fit_failures_total").value(), 1u);
  dispatcher.depart(5.0, a.job);
  dispatcher.depart(6.0, b.job);
  EXPECT_DOUBLE_EQ(reg.gauge("dvbp.alloc.open_bins").value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("dvbp.alloc.active_items").value(), 0.0);
  EXPECT_EQ(reg.counter("dvbp.alloc.bins_closed_total").value(), 2u);
}

// ---- Replay edge cases -----------------------------------------------------

// Tail-quantile regression (docs/OBSERVABILITY.md): the default latency
// ladder must resolve a p999 that sits decades above the median instead of
// collapsing it into the overflow bucket, and snapshots must report it.
// Without a tracer the engine counts fit failures from one prefiltered
// table pass; the counter must equal the per-bin count over the open
// views, holes and augmented bins included, which a tracer still takes.
TEST(DispatcherObserved, FitFailureCountWithoutATracerIsThePerBinCount) {
  for (const char* name : {"FirstFit", "BestFit", "MoveToFront"}) {
    for (const std::size_t d : {1u, 5u}) {
      for (const double capacity : {1.0, 1.3}) {
        MetricRegistry counted;
        Observer counted_observer(&counted);
        MetricRegistry traced;
        Tracer tracer(std::make_shared<RingBufferSink>());
        Observer traced_observer(&traced, &tracer);
        const PolicyPtr counted_policy = make_policy(name);
        const PolicyPtr traced_policy = make_policy(name);
        Dispatcher a(d, *counted_policy, capacity, &counted_observer);
        Dispatcher b(d, *traced_policy, capacity, &traced_observer);
        Xoshiro256pp rng(0xFA11 + d);
        std::vector<JobId> live;
        std::uint64_t expected = 0;
        Time now = 0.0;
        for (int op = 0; op < 3000; ++op) {
          now += rng.uniform();
          if (live.empty() || rng.uniform() < 0.55) {
            RVec size(d);
            for (std::size_t j = 0; j < d; ++j) {
              size[j] = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 0.6);
            }
            const auto views = a.open_views();
            for (std::size_t slot = 0; slot < views.size(); ++slot) {
              if (views[slot].id != kNoBin &&
                  !a.open_table().fits(slot, size.data())) {
                ++expected;
              }
            }
            const JobId job = a.arrive(now, size, now + 1.0).job;
            ASSERT_EQ(b.arrive(now, size, now + 1.0).job, job);
            live.push_back(job);
          } else {
            const auto k = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(live.size()) - 1));
            a.depart(now, live[k]);
            b.depart(now, live[k]);
            live[k] = live.back();
            live.pop_back();
          }
        }
        ASSERT_GT(expected, 0u);
        EXPECT_EQ(counted.counter("dvbp.alloc.fit_failures_total").value(),
                  expected)
            << name << " d=" << d << " capacity " << capacity;
        EXPECT_EQ(traced.counter("dvbp.alloc.fit_failures_total").value(),
                  expected)
            << name << " d=" << d << " capacity " << capacity;
      }
    }
  }
}

TEST(HistogramTest, TailQuantileStaysResolvable) {
  Histogram h(default_latency_bounds_ns());
  // 10k fast observations around 5us, 50 stragglers near 400ms (0.5% of
  // traffic, so the 0.999 rank lands among them) -- the shape of a
  // request-latency histogram under transient backpressure.
  for (int i = 0; i < 10000; ++i) h.observe(5.0e3);
  for (int i = 0; i < 50; ++i) h.observe(4.0e8);

  const double p50 = h.quantile(0.5);
  const double p999 = h.quantile(0.999);
  EXPECT_LE(p50, 1.0e4);
  // The stragglers land in the (2.5e8, 5e8] bucket: p999 must surface
  // them as a sub-second, supra-1e8 figure, not the overflow sentinel.
  EXPECT_GT(p999, 1.0e8);
  EXPECT_LE(p999, 5.0e8);
  EXPECT_LE(p999, h.quantile(1.0));

  // And the ladder itself keeps a finite 1s ceiling.
  const std::vector<double> bounds = default_latency_bounds_ns();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.back(), 1.0e9);

  MetricRegistry reg;
  Histogram& lat = reg.histogram("dvbp.test.latency_ns");
  lat.observe(1.0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

TEST(Replay, EmptyTraceYieldsEmptyPacking) {
  const Packing p = replay_packing(std::vector<std::string>{});
  EXPECT_EQ(p.num_bins(), 0u);
  EXPECT_TRUE(p.assignment().empty());
}

TEST(Replay, MalformedLinesAreRejected) {
  EXPECT_THROW(replay_packing({"{\"t\":0}"}), std::invalid_argument);
  EXPECT_THROW(replay_packing({"{\"ev\":\"open\",\"t\":0,\"bin\":5}"}),
               std::invalid_argument);  // ids must appear in order
  EXPECT_THROW(
      replay_packing({"{\"ev\":\"place\",\"t\":0,\"item\":0,\"bin\":0}"}),
      std::invalid_argument);  // placement into unopened bin
  EXPECT_THROW(replay_packing({"{\"ev\":\"warp\",\"t\":0}"}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dvbp::obs

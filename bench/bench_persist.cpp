// Durability ladder: what journaling costs the placement service, as a
// function of the fsync policy and the shard count. Rungs:
//
//   off       no journal_dir -- the PR-before-persistence baseline
//   none      every op framed + CRC'd + written, never fsync'd
//   interval  background flusher fsyncs every 256 ops (the default)
//   always    fsync on every commit (serial: per op; sharded: per batch)
//
// x shards in {1, 8}, on the full arrive+depart lifecycle stream of the
// forced-open workload from bench_hotpath/bench_sharded (d = 5, 100 pinned
// bins, 2000 churn items). The serial family runs the same stream through
// DurableDispatcher, where commit granularity is one op -- the worst case
// for fsync=always and the honest reference for the "journaling tax" on a
// single placement thread.
//
// Acceptance bar recorded in bench/BENCH_persist.json: fsync=interval at
// 1 shard costs <= 10% throughput vs journaling off.
//
// scripts/bench_baseline.sh --target=persist runs this and emits raw JSON;
// bench/BENCH_persist.json is the curated record (schema there).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cloud/router.hpp"
#include "cloud/sharded_dispatcher.hpp"
#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/instance.hpp"
#include "core/policies/registry.hpp"
#include "persist/durable.hpp"
#include "persist/journal.hpp"

namespace {

using namespace dvbp;
namespace fs = std::filesystem;

constexpr std::size_t kDim = 5;
constexpr std::size_t kOpen = 100;
constexpr std::size_t kChurn = 2000;

enum class Mode { kOff, kNone, kInterval, kAlways };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kOff: return "off";
    case Mode::kNone: return "none";
    case Mode::kInterval: return "interval";
    case Mode::kAlways: return "always";
  }
  return "?";
}

persist::FsyncPolicy fsync_of(Mode m) {
  switch (m) {
    case Mode::kNone: return persist::FsyncPolicy::kNone;
    case Mode::kAlways: return persist::FsyncPolicy::kAlways;
    default: return persist::FsyncPolicy::kInterval;
  }
}

/// Same shape as bench_hotpath: `n_open` bins pinned open for the whole
/// horizon while `n_churn` small items stream through.
Instance forced_open_instance(std::size_t d, std::size_t n_open,
                              std::size_t n_churn) {
  Instance inst(d);
  const Time t_end = static_cast<Time>(n_churn) + 8.0;
  for (std::size_t i = 0; i < n_open; ++i) {
    inst.add(0.0, t_end, RVec(d, 0.95));
  }
  for (std::size_t j = 0; j < n_churn; ++j) {
    const Time t = 1.0 + static_cast<Time>(j);
    inst.add(t, t + 4.0, RVec(d, 0.1));
  }
  return inst;
}

std::string scratch_dir() {
  return (fs::temp_directory_path() /
          ("dvbp_bench_persist_" +
           std::to_string(static_cast<unsigned>(::getpid()))))
      .string();
}

/// Serial reference: the full lifecycle stream through one
/// DurableDispatcher (commit per op). Mode kOff uses a bare Dispatcher --
/// the exact code path a non-durable deployment runs.
void BM_DurableSerial(benchmark::State& state, Mode mode) {
  const Instance inst = forced_open_instance(kDim, kOpen, kChurn);
  const std::vector<Event> events = build_event_stream(inst);
  const std::string dir = scratch_dir();
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    state.ResumeTiming();
    if (mode == Mode::kOff) {
      PolicyPtr policy = make_policy("FirstFit");
      Dispatcher dispatcher(inst.dim(), *policy);
      for (const Event& ev : events) {
        const Item& item = inst[ev.item];
        if (ev.kind == EventKind::kArrival) {
          dispatcher.arrive(item.arrival, item.size, item.departure);
        } else {
          dispatcher.depart(ev.time, item.id);
        }
      }
      benchmark::DoNotOptimize(dispatcher.jobs_admitted());
    } else {
      PolicyPtr policy = make_policy("FirstFit");
      persist::DurableOptions options;
      options.dir = dir;
      options.fsync = fsync_of(mode);
      persist::DurableDispatcher durable(inst.dim(), *policy, options);
      for (const Event& ev : events) {
        const Item& item = inst[ev.item];
        if (ev.kind == EventKind::kArrival) {
          durable.arrive(item.arrival, item.size, item.departure);
        } else {
          durable.depart(ev.time, item.id);
        }
      }
      benchmark::DoNotOptimize(durable.next_seq());
    }
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}

/// Headline: arrival throughput of the sharded service with per-shard
/// journals, commit per drained batch. state.range(0) = shard count,
/// state.range(1) = pinned open bins. The heavy open-bins rung is the
/// paper's contended regime -- per-arrival fit scans dominate, which is
/// where the relative journaling tax is operationally meaningful; the
/// 100-bin rung shows the raw tax when placement is nearly free.
void BM_ShardedArrivals(benchmark::State& state, Mode mode) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto n_open = static_cast<std::size_t>(state.range(1));
  const Instance inst = forced_open_instance(kDim, n_open, kChurn);
  const std::string dir = scratch_dir();
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    state.ResumeTiming();
    cloud::ShardedOptions options;
    options.shards = shards;
    options.router = cloud::RouterKind::kRoundRobin;
    options.queue_capacity = 8192;
    if (mode != Mode::kOff) {
      options.journal_dir = dir;
      options.fsync = fsync_of(mode);
    }
    cloud::ShardedDispatcher service(
        inst.dim(), [](std::size_t) { return make_policy("FirstFit"); },
        options);
    for (std::size_t i = 0; i < inst.size(); ++i) {
      const Item& item = inst[i];
      service.arrive(item.arrival, item.size, item.departure);
    }
    service.drain();
    benchmark::DoNotOptimize(service.open_bins());
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.size()));
}

#define REGISTER_SERIAL(mode)                                      \
  benchmark::RegisterBenchmark(                                    \
      (std::string("BM_DurableSerial/") + mode_name(mode)).c_str(), \
      [](benchmark::State& s) { BM_DurableSerial(s, mode); })       \
      ->Unit(benchmark::kMillisecond)

// Real time: the shard workers do the work, not the producer thread whose
// CPU time google-benchmark would otherwise divide by.
#define REGISTER_SHARDED(mode)                                        \
  benchmark::RegisterBenchmark(                                       \
      (std::string("BM_ShardedArrivals/") + mode_name(mode)).c_str(), \
      [](benchmark::State& s) { BM_ShardedArrivals(s, mode); })       \
      ->Args({1, 100})                                                \
      ->Args({1, 16000})                                              \
      ->Args({8, 100})                                                \
      ->Args({8, 16000})                                              \
      ->UseRealTime()                                                 \
      ->Unit(benchmark::kMillisecond)

int register_all() {
  REGISTER_SERIAL(Mode::kOff);
  REGISTER_SERIAL(Mode::kNone);
  REGISTER_SERIAL(Mode::kInterval);
  REGISTER_SERIAL(Mode::kAlways);
  REGISTER_SHARDED(Mode::kOff);
  REGISTER_SHARDED(Mode::kNone);
  REGISTER_SHARDED(Mode::kInterval);
  REGISTER_SHARDED(Mode::kAlways);
  return 0;
}
const int registered = register_all();

}  // namespace

BENCHMARK_MAIN();

// Sharded-service ladder: aggregate arrival throughput of the concurrent
// placement service (src/cloud/sharded_dispatcher.hpp) as a function of the
// shard count, on the same forced-open workload as bench_hotpath at the
// paper's top dimension (d = 5). With N bins pinned open, a FirstFit
// arrival pays an O(open-bins-on-its-shard) fit scan; round-robin spreads
// the pinned bins evenly, so K shards cut every scan to N/K and run the
// scans concurrently. The ladder quantifies the combined effect (shards in
// {1, 2, 4, 8} x pinned bins in {100, 1000}).
//
// The headline family feeds arrivals only, in arrival order, from one
// producer thread: that isolates the service's placement capacity (what
// "aggregate arrival throughput" means) from producer-side scheduling
// noise, and keeps the offered stream identical on every rung. The
// Lifecycle family replays the full arrive+depart event stream instead;
// departures carry no fit scan, so the speedup it shows is diluted by the
// fixed per-op queue cost -- both numbers are recorded in
// bench/BENCH_sharded.json.
//
// Sharding is not free on the paper's objective: each shard packs only its
// own substream (job j runs on shard j mod K), so K shards open more bins
// than one. The Cost family puts that price beside the throughput: uniform
// d=2 (mu=10) and d=5 (mu=100) streams go through the service at K in
// {1, 2, 4, 8} under MoveToFront (serve's default), and each rung reports
// cost_ratio, the drained cost over Lemma 1's lb_height.
//
// scripts/bench_baseline.sh --target=sharded runs this and emits raw JSON;
// bench/BENCH_sharded.json is the curated record (schema there).
#include <benchmark/benchmark.h>

#include <vector>

#include "cloud/sharded_dispatcher.hpp"
#include "core/event.hpp"
#include "core/instance.hpp"
#include "core/policies/registry.hpp"
#include "gen/uniform.hpp"
#include "opt/lower_bounds.hpp"

namespace {

using namespace dvbp;

constexpr std::size_t kDim = 5;
constexpr std::size_t kChurn = 2000;

/// Same shape as bench_hotpath: `n_open` bins pinned open for the whole
/// horizon (0.95-size items, nothing else fits beside them) while
/// `n_churn` small items (size 0.1, duration 4) stream through.
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

cloud::ShardedOptions options_for(std::size_t shards) {
  cloud::ShardedOptions options;
  options.shards = shards;
  // Larger than any forced-open rung's op count: those rungs compare
  // placement capacity, not backpressure behavior.
  options.queue_capacity = 8192;
  return options;
}

/// Feeds `events` (arrive+depart in time order) from this thread.
void feed_events(cloud::ShardedDispatcher& service, const Instance& inst,
                 const std::vector<Event>& events,
                 std::vector<JobId>& job_of_item) {
  for (const Event& ev : events) {
    if (ev.kind == EventKind::kArrival) {
      const Item& item = inst[ev.item];
      job_of_item[ev.item] =
          service.arrive(item.arrival, item.size, item.departure);
    } else {
      service.depart(ev.time, job_of_item[ev.item]);
    }
  }
}

/// Headline: arrivals only, one producer, items/s == arrivals/s.
void BM_ShardedArrivals(benchmark::State& state, const char* policy_name) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto n_open = static_cast<std::size_t>(state.range(1));
  const Instance inst = forced_open_instance(kDim, n_open, kChurn);
  const cloud::ShardedOptions options = options_for(shards);
  for (auto _ : state) {
    cloud::ShardedDispatcher service(
        inst.dim(),
        [&](std::size_t) { return make_policy(policy_name); }, options);
    for (std::size_t i = 0; i < inst.size(); ++i) {
      const Item& item = inst[i];
      service.arrive(item.arrival, item.size, item.departure);
    }
    service.drain();
    benchmark::DoNotOptimize(service.open_bins());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.size()));
}

/// Full lifecycle: the arrive+depart event stream in time order. Twice the
/// ops per item, and departures never scan, so the shard speedup here is a
/// lower bound on the headline number.
void BM_ShardedLifecycle(benchmark::State& state, const char* policy_name) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto n_open = static_cast<std::size_t>(state.range(1));
  const Instance inst = forced_open_instance(kDim, n_open, kChurn);
  const auto events = build_event_stream(inst);
  const cloud::ShardedOptions options = options_for(shards);
  std::vector<JobId> job_of_item(inst.size());
  for (auto _ : state) {
    cloud::ShardedDispatcher service(
        inst.dim(),
        [&](std::size_t) { return make_policy(policy_name); }, options);
    feed_events(service, inst, events, job_of_item);
    service.drain();
    benchmark::DoNotOptimize(service.open_bins());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.size()));
}

/// The price of sharding: a uniform stream's arrive+depart events in time
/// order through K shards. items/s beside cost_ratio = cost / lb_height.
void BM_ShardedCost(benchmark::State& state, std::size_t d, std::int64_t mu) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  gen::UniformParams params;
  params.d = d;
  params.n = 20000;
  params.mu = mu;
  const Instance inst = gen::uniform_instance(params, /*seed=*/1);
  const auto events = build_event_stream(inst);
  cloud::ShardedOptions options;  // serve's queue bound: producers may wait
  options.shards = shards;
  std::vector<JobId> job_of_item(inst.size());
  double cost = 0.0;
  for (auto _ : state) {
    cloud::ShardedDispatcher service(
        inst.dim(), [](std::size_t) { return make_policy("MoveToFront"); },
        options);
    feed_events(service, inst, events, job_of_item);
    service.drain();
    cost = service.cost_so_far(inst.last_departure());
    benchmark::DoNotOptimize(cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.size()));
  state.counters["cost_ratio"] = cost / lb_height(inst);
}

BENCHMARK_CAPTURE(BM_ShardedArrivals, FirstFit, "FirstFit")
    ->ArgsProduct({{1, 2, 4, 8}, {100, 1000}})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ShardedArrivals, MoveToFront, "MoveToFront")
    ->ArgsProduct({{1, 2, 4, 8}, {100, 1000}})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ShardedLifecycle, FirstFit, "FirstFit")
    ->ArgsProduct({{1, 2, 4, 8}, {100, 1000}})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ShardedCost, d2_mu10, 2, 10)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ShardedCost, d5_mu100, 5, 100)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();

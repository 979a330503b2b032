// Concurrency stress for the sharded placement service: racing producers,
// a polling reader, and shutdown with work still queued. Runs under TSan in
// CI (see .github/workflows/ci.yml, thread-sanitizer job).
//
// Functional assertions (checked after quiescence):
//  * every admitted job is placed in exactly one bin that lists it once;
//  * no bin ever exceeds capacity in any dimension (event-sweep audit of
//    the applied, possibly clamped, timestamps);
//  * bin open/close bookkeeping matches the items' applied intervals;
//  * destroying the service with non-empty queues still applies every op.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "cloud/router.hpp"
#include "cloud/sharded_dispatcher.hpp"
#include "core/policies/registry.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"

namespace dvbp {
namespace {

constexpr std::size_t kProducers = 4;
constexpr std::size_t kItemsPerProducer = 10000;
constexpr std::size_t kShards = 4;
constexpr std::size_t kDim = 2;

/// One producer's closed loop: arrivals with random sizes/durations, its
/// own jobs departed when their time comes. Times race across producers;
/// the service clamps per shard.
void produce(cloud::ShardedDispatcher& service, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  Time now = 0.0;
  struct Pending {
    Time when;
    JobId job;
  };
  std::deque<Pending> pending;
  for (std::size_t i = 0; i < kItemsPerProducer; ++i) {
    now += rng.uniform(0.0, 0.25);
    while (!pending.empty() && pending.front().when <= now) {
      service.depart(pending.front().when, pending.front().job);
      pending.pop_front();
    }
    const RVec size{0.05 + 0.45 * rng.uniform(),
                    0.05 + 0.45 * rng.uniform()};
    const Time duration = 1.0 + 5.0 * rng.uniform();
    const JobId job = service.arrive(now, size);
    // Departures are enqueued in increasing `when`, so the deque stays
    // sorted per producer (a real client departs jobs as they finish).
    const Time when = std::max(now + duration,
                               pending.empty() ? 0.0 : pending.back().when);
    pending.push_back({when, job});
  }
  for (const Pending& p : pending) service.depart(p.when, p.job);
}

TEST(ShardedStress, RacingProducersPlaceEveryItemExactlyOnce) {
  obs::MetricRegistry registry;
  cloud::ShardedOptions options;
  options.shards = kShards;
  options.router = cloud::RouterKind::kLeastUsage;
  options.queue_capacity = 512;  // small enough to exercise backpressure
  options.metrics = &registry;
  cloud::ShardedDispatcher service(
      kDim, [](std::size_t) { return make_policy("FirstFit"); }, options);

  std::atomic<bool> done{false};
  // Reader: polls the global view and the metrics while producers race.
  std::thread reader([&] {
    double last_cost = 0.0;
    while (!done.load(std::memory_order_acquire)) {
      const double cost = service.cost_so_far(1e18);
      // Cost at a fixed far-future probe only grows as bins open/stay open.
      EXPECT_GE(cost, 0.0);
      (void)last_cost;
      last_cost = cost;
      (void)service.open_bins();
      (void)service.jobs_active();
      (void)registry.to_json();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back(
        [&service, p] { produce(service, 0xABCD + 17 * p); });
  }
  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  service.drain();
  constexpr std::size_t kTotal = kProducers * kItemsPerProducer;
  ASSERT_EQ(service.jobs_admitted(), kTotal);
  EXPECT_EQ(service.jobs_active(), 0u);
  EXPECT_EQ(service.open_bins(), 0u);
  EXPECT_EQ(service.ops_enqueued(), 2 * kTotal);  // arrival + departure each
  EXPECT_EQ(service.ops_applied(), 2 * kTotal);

  // --- placed exactly once -------------------------------------------------
  const Packing merged = service.snapshot();
  ASSERT_EQ(merged.assignment().size(), kTotal);
  std::vector<std::uint8_t> listed(kTotal, 0);
  std::size_t total_listed = 0;
  for (const BinRecord& rec : merged.bins()) {
    for (ItemId item : rec.items) {
      ASSERT_LT(item, kTotal);
      ASSERT_EQ(listed[item], 0) << "job " << item << " placed twice";
      listed[item] = 1;
      ++total_listed;
      EXPECT_EQ(merged.assignment()[item], rec.id);
    }
  }
  EXPECT_EQ(total_listed, kTotal);

  // --- capacity + bookkeeping audit per shard ------------------------------
  // Replays each shard's applied intervals: at no sweep point may a bin's
  // load exceed capacity in any dimension, and the recorded usage period
  // must equal [first arrival, last departure).
  for (std::size_t s = 0; s < kShards; ++s) {
    const Packing local = service.shard_packing(s);
    for (const BinRecord& rec : local.bins()) {
      struct Edge {
        Time t;
        bool arrival;
        const Item* item;
      };
      std::vector<Edge> edges;
      Time first_arrival = 0.0, last_departure = 0.0;
      bool first = true;
      for (const JobId job : rec.items) {
        const Item& item = service.job_item(job);
        ASSERT_LE(item.arrival, item.departure);
        edges.push_back({item.arrival, true, &item});
        edges.push_back({item.departure, false, &item});
        first_arrival = first ? item.arrival
                              : std::min(first_arrival, item.arrival);
        last_departure = std::max(last_departure, item.departure);
        first = false;
      }
      EXPECT_DOUBLE_EQ(rec.opened, first_arrival)
          << "shard " << s << " bin " << rec.id;
      EXPECT_DOUBLE_EQ(rec.closed, last_departure)
          << "shard " << s << " bin " << rec.id;
      // Departures first at equal timestamps (half-open intervals).
      std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
        if (a.t != b.t) return a.t < b.t;
        return a.arrival < b.arrival;
      });
      RVec load(kDim);
      for (const Edge& e : edges) {
        if (e.arrival) {
          load += e.item->size;
          for (std::size_t dim = 0; dim < kDim; ++dim) {
            ASSERT_LE(load[dim], 1.0 + kCapacityEps)
                << "shard " << s << " bin " << rec.id << " overfull at t="
                << e.t;
          }
        } else {
          load -= e.item->size;
        }
      }
    }
  }

  // --- metrics -------------------------------------------------------------
  std::uint64_t applied_total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::string prefix = "dvbp.shard." + std::to_string(s) + ".";
    applied_total += registry.counter(prefix + "ops_applied_total").value();
    // (batch_size uses custom bounds, so re-looking it up here would need
    // them; the latency histogram uses the registry defaults.)
    EXPECT_GT(registry.histogram(prefix + "placement_latency_ns").count(), 0u)
        << "shard " << s;
  }
  EXPECT_EQ(applied_total, 2 * kTotal);
  EXPECT_EQ(registry.counter("dvbp.alloc.placements_total").value(), kTotal);
}

/// FirstFit wrapped with a short sleep per decision, so queues are always
/// backed up when the service is torn down.
class SlowPolicy final : public Policy {
 public:
  explicit SlowPolicy(std::uint64_t seed)
      : inner_(make_policy("FirstFit", seed)) {}
  std::string_view name() const noexcept override { return "SlowFirstFit"; }
  BinId select_bin(Time now, const Item& item,
                   std::span<const BinView> open_bins,
                   const OpenBinTable& table) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return inner_->select_bin(now, item, open_bins, table);
  }
  void on_open(Time now, BinId bin, const Item& first) override {
    inner_->on_open(now, bin, first);
  }
  void on_pack(Time now, BinId bin, const Item& item) override {
    inner_->on_pack(now, bin, item);
  }
  void on_depart(Time now, BinId bin, const Item& item,
                 bool closed) override {
    inner_->on_depart(now, bin, item, closed);
  }
  void reset() override { inner_->reset(); }

 private:
  PolicyPtr inner_;
};

TEST(ShardedStress, ShutdownWithNonEmptyQueueAppliesEverything) {
  constexpr std::size_t kJobs = 800;
  obs::MetricRegistry registry;  // outlives the service
  std::uint64_t enqueued = 0;
  {
    cloud::ShardedOptions options;
    options.shards = kShards;
    options.router = cloud::RouterKind::kRoundRobin;
    options.queue_capacity = kJobs;  // producers never block
    options.metrics = &registry;
    cloud::ShardedDispatcher service(
        kDim, [](std::size_t) { return std::make_unique<SlowPolicy>(1); },
        options);
    for (std::size_t j = 0; j < kJobs; ++j) {
      service.arrive(static_cast<Time>(j) * 0.01, RVec{0.3, 0.3});
    }
    enqueued = service.ops_enqueued();
    // ~200us per placement x 800/4 per shard >> enqueue time: the queues
    // are necessarily non-empty right now. Destroy without draining.
    EXPECT_LT(service.ops_applied(), enqueued);
  }
  ASSERT_EQ(enqueued, kJobs);
  std::uint64_t applied = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    applied += registry
                   .counter("dvbp.shard." + std::to_string(s) +
                            ".ops_applied_total")
                   .value();
  }
  EXPECT_EQ(applied, kJobs);
  EXPECT_EQ(registry.counter("dvbp.alloc.placements_total").value(), kJobs);
}

TEST(ShardedStress, DepartValidationIsEagerAndExactlyOnce) {
  cloud::ShardedOptions options;
  options.shards = 2;
  cloud::ShardedDispatcher service(
      kDim, [](std::size_t) { return make_policy("FirstFit"); }, options);
  const JobId job = service.arrive(0.0, RVec{0.5, 0.5});
  EXPECT_THROW(service.depart(1.0, job + 1), std::invalid_argument);
  service.depart(1.0, job);
  EXPECT_THROW(service.depart(2.0, job), std::invalid_argument);
  service.drain();
  EXPECT_EQ(service.jobs_active(), 0u);
}

// A refused submission takes nothing: a full queue refuses try_arrive
// without burning the id it would have taken (round-robin routes by id),
// and refuses try_depart without claiming the job. Stepped by hand on the
// thread-free core, so the queue is full exactly when the test says.
TEST(ShardedStress, ARefusedSubmissionTakesNoIdAndClaimsNoJob) {
  cloud::ShardedOptions options;
  options.shards = 1;
  options.queue_capacity = 1;
  cloud::ShardedCore service(
      kDim, [](std::size_t) { return make_policy("FirstFit"); }, options);
  const std::optional<JobId> first = service.try_arrive(0.0, RVec{0.5, 0.5});
  ASSERT_EQ(first, JobId{0});
  EXPECT_FALSE(service.try_arrive(1.0, RVec{0.5, 0.5}).has_value());
  EXPECT_FALSE(service.try_depart(1.0, *first));
  EXPECT_EQ(service.step(0), 1u);
  EXPECT_EQ(service.try_arrive(2.0, RVec{0.5, 0.5}), JobId{1});
  EXPECT_EQ(service.step(0), 1u);
  EXPECT_TRUE(service.try_depart(3.0, *first));
  service.drain();
  EXPECT_EQ(service.jobs_admitted(), 2u);
  EXPECT_EQ(service.jobs_active(), 1u);
}

}  // namespace
}  // namespace dvbp

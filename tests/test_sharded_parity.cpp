// Sharded-service parity suite: the ShardedDispatcher's packing semantics
// pinned against the serial engines.
//
//  * K = 1 (any router): the merged snapshot must reproduce the serial
//    engine bin-for-bin -- verified against the same pre-refactor FNV-1a
//    hashes test_golden_packings.cpp pins, for all ten registered policies.
//  * K > 1: each shard's packing must equal a serial Dispatcher fed that
//    shard's substream in admission order, and the global cost must equal
//    the sum of the per-shard costs at every probe timestamp.
//
// Everything here drives the service from one producer thread, so queue
// clamping never fires and the comparison is exact (concurrency is
// exercised by test_sharded_stress.cpp instead). The thread-free
// ShardedCore runs beside the threaded service: the same ops, stepped by
// this thread, must give the same packings.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/router.hpp"
#include "cloud/sharded_dispatcher.hpp"
#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/packing.hpp"
#include "core/policies/registry.hpp"
#include "gen/adversarial.hpp"
#include "gen/uniform.hpp"

namespace dvbp {
namespace {

constexpr std::uint64_t kPolicySeed = 0xD1CEu;

const char* const kPolicies[] = {
    "MoveToFront", "FirstFit",        "BestFit",     "NextFit",
    "LastFit",     "RandomFit",       "WorstFit",    "MinExtensionFit",
    "HarmonicFit", "DurationClassFit"};

// Same workload set test_golden_packings.cpp hashes were recorded on.
std::vector<std::pair<std::string, Instance>> golden_workloads() {
  std::vector<std::pair<std::string, Instance>> out;
  for (std::size_t d : {1u, 2u, 5u}) {
    gen::UniformParams params;
    params.d = d;
    params.n = 400;
    params.mu = 12;
    params.span = 100;
    params.bin_size = 9;
    out.emplace_back("uniform_d" + std::to_string(d),
                     gen::uniform_instance(params, 0xA11CE + d));
  }
  out.emplace_back("adv_anyfit",
                   gen::anyfit_lower_bound(/*k=*/6, /*d=*/2, /*mu=*/5.0)
                       .instance);
  out.emplace_back("adv_nextfit",
                   gen::nextfit_lower_bound(/*k=*/6, /*d=*/2, /*mu=*/4.0)
                       .instance);
  out.emplace_back("adv_mtf", gen::mtf_lower_bound(/*n=*/8, /*mu=*/6.0)
                                  .instance);
  out.emplace_back("adv_bestfit", gen::bestfit_unbounded(/*k=*/10).instance);
  return out;
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
}

std::uint64_t packing_hash(const Packing& p) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (BinId b : p.assignment()) fnv(h, b);
  for (const BinRecord& rec : p.bins()) {
    fnv(h, rec.id);
    fnv(h, std::bit_cast<std::uint64_t>(rec.opened));
    fnv(h, std::bit_cast<std::uint64_t>(rec.closed));
    for (ItemId r : rec.items) fnv(h, r);
  }
  return h;
}

struct GoldenEntry {
  const char* workload;
  const char* policy;
  std::uint64_t hash;
};

const GoldenEntry kGolden[] = {
#include "golden_packings.inc"
};

std::uint64_t expected_hash(const std::string& workload,
                            const std::string& policy) {
  for (const GoldenEntry& e : kGolden) {
    if (workload == e.workload && policy == e.policy) return e.hash;
  }
  ADD_FAILURE() << "no golden entry for " << workload << "/" << policy;
  return 0;
}

/// Feeds the instance's full event stream from this (single) thread and
/// blocks until every op is applied; with `step_every` > 0 it also steps
/// every shard after each `step_every` submissions. Global job ids equal
/// item ids because arrivals are admitted in instance order.
void feed_and_drain(cloud::ShardedCore& service, const Instance& inst,
                    const std::vector<Event>& events,
                    std::size_t step_every = 0) {
  std::size_t submitted = 0;
  for (const Event& ev : events) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      const JobId job = service.arrive(item.arrival, item.size,
                                       item.departure);
      ASSERT_EQ(job, item.id);
    } else {
      service.depart(ev.time, item.id);
    }
    if (step_every > 0 && ++submitted % step_every == 0) {
      for (std::size_t s = 0; s < service.shards(); ++s) service.step(s);
    }
  }
  service.drain();
}

cloud::ShardedDispatcher::PolicyFactory factory_for(
    const std::string& policy_name) {
  return [policy_name](std::size_t) {
    return make_policy(policy_name, kPolicySeed);
  };
}

void expect_same_packing(const Packing& got, const Packing& want,
                         const std::string& context) {
  ASSERT_EQ(got.assignment(), want.assignment()) << context;
  ASSERT_EQ(got.num_bins(), want.num_bins()) << context;
  for (std::size_t b = 0; b < want.num_bins(); ++b) {
    const BinRecord& x = got.bins()[b];
    const BinRecord& y = want.bins()[b];
    EXPECT_EQ(x.id, y.id) << context << " bin " << b;
    EXPECT_DOUBLE_EQ(x.opened, y.opened) << context << " bin " << b;
    EXPECT_DOUBLE_EQ(x.closed, y.closed) << context << " bin " << b;
    EXPECT_EQ(x.items, y.items) << context << " bin " << b;
  }
}

TEST(ShardedParity, SingleShardMatchesGoldenHashesForAllPolicies) {
  for (const auto& [name, inst] : golden_workloads()) {
    const auto events = build_event_stream(inst);
    for (const char* policy_name : kPolicies) {
      cloud::ShardedOptions options;
      options.shards = 1;
      options.router = cloud::RouterKind::kRoundRobin;
      const auto check = [&](cloud::ShardedCore& service, const char* kind) {
        feed_and_drain(service, inst, events);
        EXPECT_EQ(packing_hash(service.snapshot()),
                  expected_hash(name, policy_name))
            << name << "/" << policy_name << " (" << kind
            << "): K=1 sharded packing diverged from the serial engine";
        EXPECT_EQ(service.open_bins(), 0u)
            << name << "/" << policy_name << " (" << kind << ")";
      };
      cloud::ShardedDispatcher threaded(inst.dim(), factory_for(policy_name),
                                        options);
      check(threaded, "threaded");
      cloud::ShardedCore core(inst.dim(), factory_for(policy_name), options);
      check(core, "thread-free core");
    }
  }
}

TEST(ShardedParity, SingleShardRouterChoiceIsIrrelevant) {
  // With one shard every router degenerates to shard 0; the contract says
  // the packing is router-independent at K = 1.
  const auto workloads = golden_workloads();
  const auto& [name, inst] = workloads[1];  // uniform_d2
  const auto events = build_event_stream(inst);
  for (const cloud::RouterKind kind :
       {cloud::RouterKind::kRoundRobin, cloud::RouterKind::kRendezvous,
        cloud::RouterKind::kLeastUsage}) {
    cloud::ShardedOptions options;
    options.shards = 1;
    options.router = kind;
    cloud::ShardedDispatcher service(inst.dim(), factory_for("MoveToFront"),
                                     options);
    feed_and_drain(service, inst, events);
    EXPECT_EQ(packing_hash(service.snapshot()),
              expected_hash(name, "MoveToFront"))
        << name << " with router " << cloud::router_name(kind);
  }
}

TEST(ShardedParity, PerShardPackingMatchesSerialSubsequence) {
  const auto workloads = golden_workloads();
  const char* const policies[] = {"MoveToFront", "FirstFit", "NextFit",
                                  "DurationClassFit"};
  for (std::size_t w : {1u, 4u}) {  // uniform_d2, adv_nextfit
    const auto& [name, inst] = workloads[w];
    const auto events = build_event_stream(inst);
    for (const cloud::RouterKind kind :
         {cloud::RouterKind::kRoundRobin, cloud::RouterKind::kRendezvous}) {
      for (const char* policy_name : policies) {
        constexpr std::size_t kShards = 3;
        cloud::ShardedOptions options;
        options.shards = kShards;
        options.router = kind;
        // Thread-free, stepped after every 17 submissions: exact, odd
        // batch boundaries exercise re-batching.
        cloud::ShardedCore service(inst.dim(), factory_for(policy_name),
                                   options);
        feed_and_drain(service, inst, events, 17);

        for (std::size_t s = 0; s < kShards; ++s) {
          // Serial replay of shard s's substream, in admission order,
          // under the global job ids (== ItemIds: one producer).
          PolicyPtr serial_policy = make_policy(policy_name, kPolicySeed);
          Dispatcher serial(inst.dim(), *serial_policy);
          PackingRecorder recorder;
          serial.set_recorder(&recorder);
          for (const Event& ev : events) {
            const Item& item = inst[ev.item];
            if (service.shard_of(item.id) != s) continue;
            if (ev.kind == EventKind::kArrival) {
              serial.arrive(item.arrival, item);
            } else {
              serial.depart(ev.time, item.id);
            }
          }
          expect_same_packing(
              service.shard_packing(s), recorder.packing(),
              name + "/" + policy_name + "/" +
                  std::string(cloud::router_name(kind)) + " shard " +
                  std::to_string(s));
        }
      }
    }
  }
}

TEST(ShardedParity, GlobalCostIsSumOfShardCostsAtEveryProbe) {
  const auto workloads = golden_workloads();
  const auto& [name, inst] = workloads[1];  // uniform_d2
  const auto events = build_event_stream(inst);
  constexpr std::size_t kShards = 4;

  cloud::ShardedOptions options;
  options.shards = kShards;
  options.router = cloud::RouterKind::kRendezvous;
  cloud::ShardedDispatcher service(inst.dim(), factory_for("MoveToFront"),
                                   options);
  feed_and_drain(service, inst, events);

  // Independent serial replays of each shard's substream, recording so
  // that they answer historical cost queries.
  std::vector<std::unique_ptr<Dispatcher>> serial;
  std::vector<PolicyPtr> serial_policies;
  std::vector<PackingRecorder> recorders(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    serial_policies.push_back(make_policy("MoveToFront", kPolicySeed));
    serial.push_back(
        std::make_unique<Dispatcher>(inst.dim(), *serial_policies.back()));
    serial.back()->set_recorder(&recorders[s]);
  }
  for (const Event& ev : events) {
    const Item& item = inst[ev.item];
    const std::size_t s = service.shard_of(item.id);
    if (ev.kind == EventKind::kArrival) {
      serial[s]->arrive(item.arrival, item);
    } else {
      serial[s]->depart(ev.time, item.id);
    }
  }

  const Time horizon = inst.last_departure();
  for (const Time t : {0.0, 0.25 * horizon, 0.5 * horizon, 0.75 * horizon,
                       horizon, horizon + 10.0}) {
    double shard_sum = 0.0;
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_DOUBLE_EQ(service.shard_cost_so_far(s, t),
                       serial[s]->cost_so_far(t))
          << name << " shard " << s << " at t=" << t;
      shard_sum += serial[s]->cost_so_far(t);
    }
    EXPECT_DOUBLE_EQ(service.cost_so_far(t), shard_sum)
        << name << " at t=" << t;
  }

  std::size_t serial_bins = 0;
  for (const auto& d : serial) serial_bins += d->bins_opened();
  EXPECT_EQ(service.bins_opened(), serial_bins);
  EXPECT_EQ(service.jobs_active(), 0u);
}

TEST(ShardedParity, MergedSnapshotIsConsistentAcrossShards) {
  const auto workloads = golden_workloads();
  const auto& [name, inst] = workloads[2];  // uniform_d5
  (void)name;
  const auto events = build_event_stream(inst);
  constexpr std::size_t kShards = 3;
  cloud::ShardedOptions options;
  options.shards = kShards;
  options.router = cloud::RouterKind::kRoundRobin;
  cloud::ShardedDispatcher service(inst.dim(), factory_for("FirstFit"),
                                   options);
  feed_and_drain(service, inst, events);

  const Packing merged = service.snapshot();
  ASSERT_EQ(merged.assignment().size(), inst.size());
  // Every job lands in exactly one bin that lists it exactly once, and the
  // merged cost equals the service's metered cost.
  std::vector<std::size_t> listed(inst.size(), 0);
  for (const BinRecord& rec : merged.bins()) {
    for (ItemId it : rec.items) {
      ++listed[it];
      EXPECT_EQ(merged.assignment()[it], rec.id);
    }
  }
  for (std::size_t j = 0; j < inst.size(); ++j) {
    EXPECT_EQ(listed[j], 1u) << "job " << j;
  }
  EXPECT_EQ(merged.num_bins(), service.bins_opened());
  EXPECT_DOUBLE_EQ(merged.cost(),
                   service.cost_so_far(inst.last_departure()));
}

}  // namespace
}  // namespace dvbp

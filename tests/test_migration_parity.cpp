// Budget-0 differential pinning: with migrations disabled the migration-
// capable engine must be BIT-EXACT with the pre-migration engine. The
// live Dispatcher (+ an attached zero-budget Rebalancer) replays the same
// golden workloads test_golden_packings.cpp pins and must reproduce the
// recorded FNV-1a hashes for all ten policies -- while the
// PackingInvariantChecker passes after every event. A K=3 sharded service
// with a zero-move shard-rebalance pass must likewise match a run without
// the pass, bin for bin.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cloud/router.hpp"
#include "cloud/sharded_dispatcher.hpp"
#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/invariants.hpp"
#include "core/packing.hpp"
#include "core/policies/registry.hpp"
#include "core/rebalancer.hpp"
#include "gen/adversarial.hpp"
#include "gen/uniform.hpp"
#include "packing_hash.hpp"

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

// With budget 0 the zero-budget engine's golden hashes must hold for all
// ten policies -- including the class-structured ones the rebalancer
// avoids at budget > 0 -- because the arrive/depart code paths are the
// pre-migration ones, byte for byte. The invariant checker rides along
// on every event; the exec callbacks count that no mutation ever fires.
TEST(MigrationParity, ZeroBudgetMatchesGoldenHashesForAllPolicies) {
  for (const auto& [name, inst] : golden_workloads()) {
    const auto events = build_event_stream(inst);
    for (const char* policy_name : kPolicies) {
      SCOPED_TRACE(name + std::string("/") + policy_name);
      PolicyPtr policy = make_policy(policy_name, kPolicySeed);
      Dispatcher dispatcher(inst.dim(), *policy);
      PackingRecorder recorder;
      dispatcher.set_recorder(&recorder);
      std::size_t mutations = 0;
      Rebalancer rebalancer(
          dispatcher, MigrationConfig{},  // 0 migrations/event
          MigrationExec{
              [&](Time, JobId) { ++mutations; },
              [&](Time, JobId, BinId) -> BinId {
                ++mutations;
                return kNoBin;
              }});
      PackingInvariantChecker checker;
      for (const Event& ev : events) {
        const Item& item = inst[ev.item];
        if (ev.kind == EventKind::kArrival) {
          dispatcher.arrive(item.arrival, item.size, item.departure);
        } else {
          dispatcher.depart(ev.time, item.id);
          rebalancer.on_departure(ev.time);
        }
        const auto err = checker.check(dispatcher, &recorder);
        ASSERT_FALSE(err.has_value()) << *err;
      }
      EXPECT_EQ(mutations, 0u) << "zero budget must never mutate";
      EXPECT_EQ(packing_hash(recorder.packing()),
                expected_hash(name, policy_name))
          << "budget-0 engine diverged from the pinned golden packing";
    }
  }
}

// The recorder's last-bin assignment must agree with the assignment its
// bin records imply when no migration happened.
TEST(MigrationParity, PackingAccessorAgreesWithRecordsWithoutMigration) {
  const auto workloads = golden_workloads();
  const auto& [name, inst] = workloads[1];  // uniform_d2
  (void)name;
  PolicyPtr policy = make_policy("BestFit", kPolicySeed);
  Dispatcher dispatcher(inst.dim(), *policy);
  PackingRecorder recorder;
  dispatcher.set_recorder(&recorder);
  for (const Event& ev : build_event_stream(inst)) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      dispatcher.arrive(item.arrival, item.size, item.departure);
    } else {
      dispatcher.depart(ev.time, item.id);
    }
  }
  std::vector<BinId> from_records(dispatcher.jobs_admitted(), kNoBin);
  for (const BinRecord& rec : recorder.bins()) {
    for (ItemId it : rec.items) from_records[it] = rec.id;
  }
  EXPECT_EQ(recorder.packing().assignment(), from_records);
}

// K=3 sharded service: a zero-move rebalance pass at the stream midpoint
// (drain, rebalance_shards with max_moves=0, resume) must leave the final
// merged packing identical to a run without the pass.
TEST(MigrationParity, ShardedZeroMoveRebalanceIsANoOp) {
  const auto workloads = golden_workloads();
  const auto& [name, inst] = workloads[1];  // uniform_d2
  (void)name;
  const auto events = build_event_stream(inst);
  for (const char* policy_name : {"MoveToFront", "FirstFit"}) {
    SCOPED_TRACE(policy_name);
    const auto factory = [policy_name](std::size_t) {
      return make_policy(policy_name, kPolicySeed);
    };
    cloud::ShardedOptions options;
    options.shards = 3;
    options.router = cloud::RouterKind::kRoundRobin;

    std::uint64_t hashes[2];
    for (const bool with_pass : {false, true}) {
      cloud::ShardedDispatcher service(inst.dim(), factory, options);
      const std::size_t midpoint = events.size() / 2;
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (with_pass && i == midpoint) {
          service.drain();
          cloud::ShardRebalanceConfig config;
          config.max_moves = 0;
          const cloud::ShardRebalanceReport report =
              service.rebalance_shards(events[i].time, config);
          EXPECT_EQ(report.moves, 0u);
          EXPECT_DOUBLE_EQ(report.moved_volume, 0.0);
        }
        const Event& ev = events[i];
        const Item& item = inst[ev.item];
        if (ev.kind == EventKind::kArrival) {
          service.arrive(item.arrival, item.size, item.departure);
        } else {
          service.depart(ev.time, item.id);
        }
      }
      service.drain();
      hashes[with_pass] = packing_hash(service.snapshot());
    }
    EXPECT_EQ(hashes[0], hashes[1])
        << "a zero-move rebalance pass changed the packing";
  }
}

// A real (non-zero) shard rebalance must keep every job exactly once in
// the merged snapshot and preserve per-shard invariants at quiescence.
TEST(MigrationParity, ShardedRebalanceKeepsSnapshotConsistent) {
  const auto workloads = golden_workloads();
  const auto& [name, inst] = workloads[1];  // uniform_d2
  (void)name;
  const auto events = build_event_stream(inst);
  cloud::ShardedOptions options;
  options.shards = 3;
  options.router = cloud::RouterKind::kRoundRobin;
  cloud::ShardedDispatcher service(
      inst.dim(),
      [](std::size_t) { return make_policy("FirstFit", kPolicySeed); },
      options);
  const std::size_t midpoint = events.size() / 2;
  std::size_t moves = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == midpoint) {
      service.drain();
      cloud::ShardRebalanceConfig config;
      config.skew_ratio = 1.0;  // aggressive: any imbalance qualifies
      config.min_gap = 0.0;
      config.max_moves = 8;
      moves = service.rebalance_shards(events[i].time, config).moves;
      // Per-shard state is checkable at quiescence.
      for (std::size_t s = 0; s < 3; ++s) {
        PackingInvariantChecker shard_checker;
        const auto err = shard_checker.check(service.shard_dispatcher(s),
                                             &service.shard_recorder(s));
        ASSERT_FALSE(err.has_value()) << "shard " << s << ": " << *err;
      }
    }
    const Event& ev = events[i];
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      service.arrive(item.arrival, item.size, item.departure);
    } else {
      service.depart(ev.time, item.id);
    }
  }
  service.drain();
  EXPECT_GT(moves, 0u) << "midpoint load was never skewed enough to move";

  const Packing merged = service.snapshot();
  // One assignment slot per job id the service handed out, even though a
  // moved job is admitted on two shards.
  ASSERT_EQ(merged.assignment().size(), service.jobs_admitted());
  ASSERT_EQ(service.jobs_admitted(), inst.size());
  std::vector<std::size_t> listed(inst.size(), 0);
  for (const BinRecord& rec : merged.bins()) {
    for (ItemId it : rec.items) ++listed[it];
  }
  for (std::size_t j = 0; j < inst.size(); ++j) {
    // A rebalanced job appears in bins of two shards; everyone else once.
    EXPECT_GE(listed[j], 1u) << "job " << j;
    EXPECT_LE(listed[j], 2u) << "job " << j;
    EXPECT_NE(merged.assignment()[j], kNoBin) << "job " << j;
  }
  EXPECT_EQ(service.jobs_active(), 0u);
}

}  // namespace
}  // namespace dvbp

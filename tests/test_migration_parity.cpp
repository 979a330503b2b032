// Budget-0 differential pinning: with migrations disabled the migration-
// capable engine must be BIT-EXACT with the pre-migration engine. The
// live Dispatcher (+ an attached zero-budget Rebalancer) replays the same
// golden workloads test_golden_packings.cpp pins and must reproduce the
// recorded FNV-1a hashes for all ten policies -- while the
// PackingInvariantChecker passes after every event.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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

}  // namespace
}  // namespace dvbp

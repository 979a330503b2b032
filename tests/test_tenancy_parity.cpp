// Tenancy-disabled differential suite: threading tenant labels and the
// usage-accounting hook through the engines must never perturb placement.
//
//   * Serial: the live Dispatcher with tenant-labeled arrivals and a
//     UsageAccountant attached must reproduce every golden packing hash
//     (tests/golden_packings.inc) for all ten policies -- placement is
//     tenant-blind by contract.
//   * Sharded, K > 1: a tenant-labeled run (ShardedOptions.tenants > 0,
//     per-shard accountants live) must be bin-for-bin identical to the
//     pre-tenancy configuration (tenants = 0, unlabeled arrivals) on the
//     same feed, and the shard accountants must meter exactly the demand
//     integrals the labels imply.
//   * Sharded settlement (the thread-free core, journaled): merging the
//     shard ledgers cuts the same epoch usage a serial accountant does,
//     conserves credits, and the settled state recovers from shard 0.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cloud/sharded_dispatcher.hpp"
#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/packing.hpp"
#include "core/policies/registry.hpp"
#include "gen/adversarial.hpp"
#include "gen/tenants.hpp"
#include "gen/uniform.hpp"
#include "packing_hash.hpp"
#include "tenancy/accountant.hpp"
#include "tenancy/arbiter.hpp"

namespace dvbp {
namespace {

constexpr std::uint64_t kPolicySeed = 0xD1CEu;
constexpr std::uint32_t kTenants = 5;

const char* const kPolicies[] = {
    "MoveToFront", "FirstFit",        "BestFit",     "NextFit",
    "LastFit",     "RandomFit",       "WorstFit",    "MinExtensionFit",
    "HarmonicFit", "DurationClassFit"};

std::vector<std::pair<std::string, Instance>> golden_workloads() {
  std::vector<std::pair<std::string, Instance>> out;
  for (std::size_t d : {1u, 2u, 5u, 7u, 8u, 9u, 16u}) {
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

/// Drives the live Dispatcher over the labeled instance with the usage
/// hook attached and returns the final packing.
Packing run_labeled_dispatcher(const Instance& inst,
                               const std::string& policy_name,
                               tenancy::UsageAccountant* accountant) {
  const PolicyPtr policy = make_policy(policy_name, kPolicySeed);
  Dispatcher dispatcher(inst.dim(), *policy);
  PackingRecorder recorder;
  dispatcher.set_recorder(&recorder);
  if (accountant != nullptr) dispatcher.set_usage_hook(accountant);
  for (const Event& ev : build_event_stream(inst)) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      dispatcher.arrive(item.arrival, item.size, item.departure,
                        item.tenant);
    } else {
      dispatcher.depart(ev.time, item.id);
    }
  }
  return std::move(recorder).packing();
}

// Serial: labels + live accounting reproduce every golden hash.
TEST(TenancyParity, LabeledDispatcherMatchesAllGoldenHashes) {
  for (const auto& [name, base] : golden_workloads()) {
    Instance inst = base;
    gen::label_tenants_uniform(inst, kTenants, /*seed=*/0xFA1Du);
    for (const char* policy_name : kPolicies) {
      tenancy::UsageAccountant accountant(kTenants);
      const Packing packing =
          run_labeled_dispatcher(inst, policy_name, &accountant);
      EXPECT_EQ(packing_hash(packing), expected_hash(name, policy_name))
          << name << "/" << policy_name
          << ": tenant labels or the usage hook perturbed placement";
      // The accounting that rode along must cover the whole instance.
      double total = 0.0;
      for (std::uint32_t t = 0; t < kTenants; ++t) {
        total += accountant.demand_integral(t);
      }
      EXPECT_NEAR(total, inst.total_utilization(), 1e-6)
          << name << "/" << policy_name;
    }
  }
}

/// Feeds the instance through a sharded service; returns the drained
/// snapshot. `tenants` > 0 turns the per-shard accountants on and labels
/// the arrivals.
Packing run_sharded(const Instance& inst, std::size_t shards,
                    std::uint32_t tenants, const std::string& policy_name,
                    std::vector<double>* demand_out = nullptr) {
  cloud::ShardedOptions options;
  options.shards = shards;
  options.tenants = tenants;
  cloud::ShardedDispatcher service(
      inst.dim(),
      [&](std::size_t) { return make_policy(policy_name, kPolicySeed); },
      options);
  std::vector<JobId> job_of_item(inst.size(), kNoItem);
  for (const Event& ev : build_event_stream(inst)) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      job_of_item[ev.item] =
          service.arrive(item.arrival, item.size, item.departure,
                         tenants > 0 ? item.tenant : kNoTenant);
    } else {
      service.depart(ev.time, job_of_item[ev.item]);
    }
  }
  service.drain();
  if (demand_out != nullptr) {
    demand_out->assign(tenants, 0.0);
    for (std::size_t s = 0; s < shards; ++s) {
      const tenancy::UsageAccountant* acc = service.shard_accountant(s);
      if (acc == nullptr) {
        ADD_FAILURE() << "shard " << s << " has no accountant";
        continue;
      }
      for (std::uint32_t t = 0; t < tenants; ++t) {
        (*demand_out)[t] += acc->demand_integral(t);
      }
    }
  }
  return service.snapshot();
}

bool same_packing(const Packing& a, const Packing& b) {
  if (a.assignment() != b.assignment()) return false;
  if (a.num_bins() != b.num_bins()) return false;
  for (std::size_t i = 0; i < a.num_bins(); ++i) {
    const BinRecord& x = a.bins()[i];
    const BinRecord& y = b.bins()[i];
    if (x.id != y.id || x.opened != y.opened || x.closed != y.closed ||
        x.items != y.items) {
      return false;
    }
  }
  return true;
}

// Sharded K > 1: tenancy on vs off is bin-for-bin identical, and the
// merged shard accountants meter exactly the label-implied integrals.
TEST(TenancyParity, ShardedTenancyOnOffBitExact) {
  gen::UniformParams params;
  params.d = 2;
  params.n = 600;
  params.mu = 10;
  params.span = 200;
  params.bin_size = 20;
  Instance inst = gen::uniform_instance(params, 0xC0FFEE);
  gen::label_tenants_uniform(inst, kTenants, /*seed=*/0xFA1Du);

  for (const std::size_t shards : {2u, 3u}) {
    for (const char* policy_name : {"FirstFit", "BestFit", "MoveToFront"}) {
      SCOPED_TRACE(std::string(policy_name) + " K=" +
                   std::to_string(shards));
      const Packing off = run_sharded(inst, shards, 0, policy_name);
      std::vector<double> demand;
      const Packing on =
          run_sharded(inst, shards, kTenants, policy_name, &demand);
      EXPECT_TRUE(same_packing(off, on))
          << "tenancy wiring perturbed the sharded packing";
      EXPECT_EQ(packing_hash(off), packing_hash(on));

      // Demand integrals are placement-independent, so the shard-merged
      // ledgers must equal the per-tenant utilization of the labels.
      std::vector<double> expected(kTenants, 0.0);
      for (std::size_t i = 0; i < inst.size(); ++i) {
        expected[inst[i].tenant] += inst[i].utilization();
      }
      for (std::uint32_t t = 0; t < kTenants; ++t) {
        EXPECT_NEAR(demand[t], expected[t], 1e-6) << "tenant " << t;
      }
    }
  }
}

// Serial vs sharded: the same labeled feed meters identical per-tenant
// demand integrals no matter the topology.
TEST(TenancyParity, AccountingAgreesAcrossTopologies) {
  gen::UniformParams params;
  params.d = 3;
  params.n = 400;
  params.mu = 8;
  params.span = 150;
  params.bin_size = 12;
  Instance inst = gen::uniform_instance(params, 0xBEEF);
  gen::label_tenants(inst, {4.0, 2.0, 1.0, 1.0}, /*seed=*/99);

  tenancy::UsageAccountant serial_acc(4);
  run_labeled_dispatcher(inst, "BestFit", &serial_acc);

  std::vector<double> sharded_demand;
  run_sharded(inst, 3, 4, "BestFit", &sharded_demand);

  for (std::uint32_t t = 0; t < 4; ++t) {
    EXPECT_NEAR(sharded_demand[t], serial_acc.demand_integral(t), 1e-6)
        << "tenant " << t;
  }
}

// settle_tenants on a journaled K=2 core, every 50 time units at
// quiescence: (a) the merged epoch usage is a serial accountant's cut,
// (b) credits are conserved, (c) a reopen recovers the last settlement
// from shard 0's journal.
TEST(TenancyParity, ShardedSettlementMatchesSerialCutAndRecovers) {
  constexpr std::uint32_t kSettleTenants = 3;
  constexpr Time kEpoch = 50.0;
  gen::UniformParams params;
  params.d = 2;
  params.n = 600;
  params.mu = 10;
  params.span = 200;
  params.bin_size = 20;
  Instance inst = gen::uniform_instance(params, 0x5E771Eu);
  gen::label_tenants_uniform(inst, kSettleTenants, /*seed=*/0x7E4Au);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dvbp_settle_" + std::to_string(static_cast<unsigned>(::getpid())));
  std::filesystem::remove_all(dir);
  cloud::ShardedOptions options;
  options.shards = 2;
  options.tenants = kSettleTenants;
  options.journal_dir = dir.string();
  options.fsync = persist::FsyncPolicy::kNone;
  const auto factory = [](std::size_t) {
    return make_policy("BestFit", kPolicySeed);
  };
  tenancy::ArbiterConfig config;
  config.num_tenants = kSettleTenants;
  config.alpha = 0.05;
  config.capacity_units = 3.0;
  config.init_credits = 10.0;
  tenancy::Arbiter arbiter(config);

  tenancy::UsageAccountant serial(kSettleTenants);
  std::vector<std::uint8_t> last_state;
  int settlements = 0;
  {
    cloud::ShardedCore service(inst.dim(), factory, options);
    const auto settle = [&](Time now) {
      service.drain();
      const std::vector<double> usage = service.settle_tenants(now, arbiter);
      serial.on_advance(now, 0);
      const std::vector<double> cut = serial.cut_epoch();
      for (std::uint32_t t = 0; t < kSettleTenants; ++t) {
        EXPECT_NEAR(usage[t], cut[t], 1e-9 * std::max(1.0, std::abs(cut[t])))
            << "tenant " << t << " at t=" << now;
      }
      const double supply =
          kSettleTenants * config.init_credits + arbiter.public_injected();
      EXPECT_NEAR(arbiter.credit_sum(), supply, 1e-9 * supply)
          << "at t=" << now;
      last_state = arbiter.state_bytes();
      ++settlements;
    };
    std::vector<JobId> job_of_item(inst.size(), kNoItem);
    Time next_settle = kEpoch;
    for (const Event& ev : build_event_stream(inst)) {
      for (; ev.time >= next_settle; next_settle += kEpoch) {
        settle(next_settle);
      }
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        serial.on_arrive(item, ev.time, 0);
        job_of_item[ev.item] = service.arrive(item.arrival, item.size,
                                              item.departure, item.tenant);
      } else {
        serial.on_depart(item, ev.time, 0);
        service.depart(ev.time, job_of_item[ev.item]);
      }
    }
    settle(next_settle);
  }
  EXPECT_GE(settlements, 4);

  cloud::ShardedCore reopened(inst.dim(), factory, options);
  EXPECT_EQ(reopened.shard_recovery(0).tenant_credits, last_state);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dvbp

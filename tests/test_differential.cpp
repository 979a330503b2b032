// Differential tests: independent reference implementations cross-checked
// against the production engine on randomized workloads, plus mutation
// fuzzing of the packing auditor (every corruption of a valid packing must
// be caught).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/policies/registry.hpp"
#include "core/simulator.hpp"
#include "gen/uniform.hpp"
#include "opt/lower_bounds.hpp"
#include "stats/rng.hpp"

namespace dvbp {
namespace {

// ---- Reference First Fit ---------------------------------------------------
// A from-scratch, simulator-free First Fit: processes the event stream with
// naive data structures. Any divergence from the engine indicates a bug in
// one of them.

struct RefBin {
  RVec load;
  std::vector<ItemId> active;
  Time opened = 0;
  Time closed = 0;
  bool open = true;
};

double reference_first_fit(const Instance& inst,
                           std::vector<BinId>* assignment_out) {
  std::vector<RefBin> bins;
  std::vector<BinId> assignment(inst.size(), kNoBin);
  for (const Event& ev : build_event_stream(inst)) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      bool placed = false;
      for (std::size_t b = 0; b < bins.size() && !placed; ++b) {
        if (!bins[b].open) continue;
        if (bins[b].load.fits_with(item.size)) {
          bins[b].load += item.size;
          bins[b].active.push_back(item.id);
          assignment[item.id] = static_cast<BinId>(b);
          placed = true;
        }
      }
      if (!placed) {
        RefBin bin;
        bin.load = item.size;
        bin.active.push_back(item.id);
        bin.opened = ev.time;
        bins.push_back(std::move(bin));
        assignment[item.id] = static_cast<BinId>(bins.size() - 1);
      }
    } else {
      RefBin& bin = bins[assignment[item.id]];
      bin.load -= item.size;
      bin.load.clamp_nonnegative();
      bin.active.erase(
          std::find(bin.active.begin(), bin.active.end(), item.id));
      if (bin.active.empty()) {
        bin.open = false;
        bin.closed = ev.time;
      }
    }
  }
  double cost = 0.0;
  for (const RefBin& bin : bins) cost += bin.closed - bin.opened;
  if (assignment_out) *assignment_out = assignment;
  return cost;
}

class DifferentialFfTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(DifferentialFfTest, EngineMatchesReferenceExactly) {
  const auto [d, seed] = GetParam();
  gen::UniformParams params;
  params.d = d;
  params.n = 400;
  params.mu = 12;
  params.span = 100;
  params.bin_size = 9;
  const Instance inst = gen::uniform_instance(params, seed);

  std::vector<BinId> ref_assignment;
  const double ref_cost = reference_first_fit(inst, &ref_assignment);

  const SimResult engine = simulate(inst, "FirstFit", {.audit = true});
  EXPECT_NEAR(engine.cost, ref_cost, 1e-9);
  EXPECT_EQ(engine.packing.assignment(), ref_assignment);
}

INSTANTIATE_TEST_SUITE_P(
    Random, DifferentialFfTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 5),
                       ::testing::Values<std::uint64_t>(101, 202, 303, 404,
                                                        505)));

// ---- Dispatcher vs simulate() under resource augmentation -------------------
// The streaming Dispatcher must reproduce the batch engine bin-for-bin not
// only at capacity 1 (covered by test_dispatcher) but for every augmented
// capacity 1 + beta, where the fit predicate and therefore every placement
// decision changes.

class AugmentedDifferentialTest
    : public ::testing::TestWithParam<std::tuple<double, const char*>> {};

TEST_P(AugmentedDifferentialTest, DispatcherMatchesEngineBinForBin) {
  const auto [beta, policy_name] = GetParam();
  const double capacity = 1.0 + beta;
  gen::UniformParams params;
  params.d = 2;
  params.n = 300;
  params.mu = 10;
  params.span = 80;
  params.bin_size = 7;
  const Instance inst = gen::uniform_instance(params, 99);

  SimOptions opts;
  opts.bin_capacity = capacity;
  PolicyPtr batch_policy = make_policy(policy_name);
  const SimResult sim = simulate(inst, *batch_policy, opts);

  PolicyPtr live_policy = make_policy(policy_name);
  Dispatcher dispatcher(inst.dim(), *live_policy, capacity);
  PackingRecorder recorder;
  dispatcher.set_recorder(&recorder);
  for (const Event& ev : build_event_stream(inst)) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      const auto admission =
          dispatcher.arrive(item.arrival, item.size, item.departure);
      ASSERT_EQ(admission.job, item.id);
      EXPECT_EQ(admission.bin, sim.packing.bin_of(item.id))
          << "item " << item.id << " at beta=" << beta;
    } else {
      dispatcher.depart(ev.time, item.id);
    }
  }

  ASSERT_EQ(recorder.num_bins(), sim.packing.num_bins());
  const std::vector<BinRecord> records = recorder.bin_records();
  for (std::size_t b = 0; b < sim.packing.num_bins(); ++b) {
    const BinRecord& live = records[b];
    const BinRecord& batch = sim.packing.bins()[b];
    EXPECT_EQ(live.id, batch.id);
    EXPECT_DOUBLE_EQ(live.opened, batch.opened) << "bin " << b;
    EXPECT_DOUBLE_EQ(live.closed, batch.closed) << "bin " << b;
    EXPECT_EQ(live.items, batch.items) << "bin " << b;
  }
  EXPECT_EQ(dispatcher.open_bins(), 0u);
  EXPECT_NEAR(dispatcher.cost_so_far(inst.last_departure()), sim.cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Augmented, AugmentedDifferentialTest,
    ::testing::Combine(::testing::Values(0.25, 0.5, 1.0),
                       ::testing::Values("FirstFit", "MoveToFront", "BestFit",
                                         "NextFit")));

// ---- Reference lb_height via brute-force time grid --------------------------

TEST(DifferentialLb, HeightMatchesTimeGridOnIntegralInstances) {
  // All generator timestamps are integral, so evaluating the load at
  // t + 0.5 for every integer t integrates ceil(linf) exactly.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    gen::UniformParams params;
    params.d = 2;
    params.n = 120;
    params.mu = 6;
    params.span = 50;
    params.bin_size = 8;
    const Instance inst = gen::uniform_instance(params, seed);
    double grid = 0.0;
    for (int t = 0; t < 60; ++t) {
      const RVec load = inst.load_at(static_cast<Time>(t) + 0.5);
      grid += std::ceil(load.linf() - 1e-9);
    }
    EXPECT_NEAR(lb_height(inst), grid, 1e-9) << "seed " << seed;
  }
}

// ---- Auditor mutation fuzzing ------------------------------------------------

Packing valid_packing(const Instance& inst) {
  return simulate(inst, "FirstFit").packing;
}

Instance fuzz_instance(std::uint64_t seed) {
  gen::UniformParams params;
  params.d = 2;
  params.n = 60;
  params.mu = 6;
  params.span = 30;
  params.bin_size = 5;
  return gen::uniform_instance(params, seed);
}

TEST(AuditorFuzz, ValidPackingAccepted) {
  const Instance inst = fuzz_instance(7);
  EXPECT_FALSE(valid_packing(inst).validate(inst).has_value());
}

TEST(AuditorFuzz, ReassigningBoundaryItemsIsCaught) {
  // Moving the item that defines a bin's closing time into another bin
  // always desynchronizes the source bin's recorded usage period, so the
  // auditor must flag every such mutation.
  const Instance inst = fuzz_instance(7);
  const Packing good = valid_packing(inst);
  if (good.num_bins() < 2) GTEST_SKIP();
  Xoshiro256pp rng(13);
  std::size_t caught = 0;
  std::size_t attempts = 0;
  for (int rep = 0; rep < 20; ++rep) {
    auto assignment = good.assignment();
    auto bins = good.bins();
    const auto from = static_cast<BinId>(
        rng.uniform_int(0, static_cast<std::int64_t>(bins.size()) - 1));
    const auto to = static_cast<BinId>(
        rng.uniform_int(0, static_cast<std::int64_t>(bins.size()) - 1));
    if (to == from) continue;
    // Victim: the latest-departing item of `from`.
    ItemId victim = bins[from].items.front();
    for (ItemId r : bins[from].items) {
      if (inst[r].departure > inst[victim].departure) victim = r;
    }
    ++attempts;
    auto& src = bins[from].items;
    src.erase(std::find(src.begin(), src.end(), victim));
    bins[to].items.push_back(victim);
    assignment[victim] = to;
    const Packing mutated(std::move(assignment), std::move(bins));
    if (mutated.validate(inst).has_value()) ++caught;
  }
  EXPECT_EQ(caught, attempts);
  EXPECT_GT(attempts, 0u);
}

TEST(AuditorFuzz, ShrinkingUsagePeriodIsCaught) {
  const Instance inst = fuzz_instance(11);
  const Packing good = valid_packing(inst);
  auto bins = good.bins();
  bins.front().closed -= 0.5;
  const Packing mutated(good.assignment(), std::move(bins));
  EXPECT_TRUE(mutated.validate(inst).has_value());
}

TEST(AuditorFuzz, ExtendingUsagePeriodIsCaught) {
  const Instance inst = fuzz_instance(11);
  const Packing good = valid_packing(inst);
  auto bins = good.bins();
  bins.back().opened -= 1.0;
  const Packing mutated(good.assignment(), std::move(bins));
  EXPECT_TRUE(mutated.validate(inst).has_value());
}

TEST(AuditorFuzz, DroppingAnItemIsCaught) {
  const Instance inst = fuzz_instance(19);
  const Packing good = valid_packing(inst);
  auto bins = good.bins();
  for (auto& bin : bins) {
    if (bin.items.size() > 1) {
      bin.items.pop_back();
      break;
    }
  }
  const Packing mutated(good.assignment(), std::move(bins));
  EXPECT_TRUE(mutated.validate(inst).has_value());
}

TEST(AuditorFuzz, DuplicatingAnItemIsCaught) {
  const Instance inst = fuzz_instance(23);
  const Packing good = valid_packing(inst);
  auto bins = good.bins();
  bins.front().items.push_back(bins.front().items.front());
  const Packing mutated(good.assignment(), std::move(bins));
  EXPECT_TRUE(mutated.validate(inst).has_value());
}

// ---- Engine invariants under randomized stress --------------------------------

TEST(EngineStress, TimelineIntegralEqualsCost) {
  // integral of (#open bins) dt over the timeline == total cost, for every
  // policy -- two independent accountings of the same quantity.
  const Instance inst = fuzz_instance(31);
  for (const char* name : {"MoveToFront", "FirstFit", "NextFit", "BestFit",
                           "HarmonicFit", "DurationClassFit"}) {
    const SimResult r = simulate(inst, name, {.record_timeline = true});
    double integral = 0.0;
    for (std::size_t i = 0; i + 1 < r.timeline.size(); ++i) {
      integral += static_cast<double>(r.timeline[i].second) *
                  (r.timeline[i + 1].first - r.timeline[i].first);
    }
    EXPECT_NEAR(integral, r.cost, 1e-6) << name;
  }
}

TEST(EngineStress, BinsOpenedNeverBelowPeak) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Instance inst = fuzz_instance(seed + 41);
    const SimResult r = simulate(inst, "RandomFit", {}, seed);
    EXPECT_GE(r.bins_opened, r.max_open_bins);
    EXPECT_LE(r.bins_opened, inst.size());
  }
}

}  // namespace
}  // namespace dvbp

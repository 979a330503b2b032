// Behavioral tests for each Any Fit policy: given hand-built bin
// configurations, each algorithm must pick exactly the bin its definition
// (paper Sec. 2.2 / Sec. 7) prescribes.
#include <gtest/gtest.h>

#include "core/policies/best_fit.hpp"
#include "core/policies/first_fit.hpp"
#include "core/policies/last_fit.hpp"
#include "core/policies/move_to_front.hpp"
#include "core/policies/next_fit.hpp"
#include "core/policies/random_fit.hpp"
#include "core/policies/registry.hpp"
#include "core/policies/worst_fit.hpp"
#include "core/simulator.hpp"

namespace dvbp {
namespace {

// Two bins: B0 holds 0.6, B1 holds 0.5 (opened later); a probe of size 0.3
// fits both. Policies must disagree exactly as designed.
Instance two_bin_probe() {
  Instance inst(1);
  inst.add(0.0, 10.0, RVec{0.6});  // -> B0
  inst.add(0.0, 10.0, RVec{0.5});  // does not fit B0 -> B1
  inst.add(1.0, 2.0, RVec{0.3});   // probe: fits both
  return inst;
}

TEST(FirstFit, PicksEarliestOpenedBin) {
  const auto result = simulate(two_bin_probe(), "FirstFit");
  EXPECT_EQ(result.packing.bin_of(2), 0u);
  EXPECT_EQ(result.bins_opened, 2u);
}

TEST(LastFit, PicksLatestOpenedBin) {
  const auto result = simulate(two_bin_probe(), "LastFit");
  EXPECT_EQ(result.packing.bin_of(2), 1u);
}

TEST(BestFit, PicksMostLoadedBin) {
  const auto result = simulate(two_bin_probe(), "BestFit");
  EXPECT_EQ(result.packing.bin_of(2), 0u);  // 0.6 > 0.5
}

TEST(WorstFit, PicksLeastLoadedBin) {
  const auto result = simulate(two_bin_probe(), "WorstFit");
  EXPECT_EQ(result.packing.bin_of(2), 1u);  // 0.5 < 0.6
}

TEST(MoveToFront, PicksMostRecentlyUsedBin) {
  // B1 was used (opened) last, so it leads the MRU list.
  const auto result = simulate(two_bin_probe(), "MoveToFront");
  EXPECT_EQ(result.packing.bin_of(2), 1u);
}

TEST(AnyFit, NeverOpensBinWhenOneFits) {
  // All full-list Any Fit policies must pack the probe in an open bin.
  for (const char* name : {"FirstFit", "LastFit", "BestFit", "WorstFit",
                           "MoveToFront", "RandomFit"}) {
    const auto result = simulate(two_bin_probe(), name);
    EXPECT_EQ(result.bins_opened, 2u) << name;
  }
}

TEST(BestFit, LoadMeasureChangesDecision) {
  // B0 = (0.8, 0.1): Linf 0.8, L1 0.9. B1 = (0.5, 0.5): Linf 0.5, L1 1.0.
  Instance inst(2);
  inst.add(0.0, 10.0, RVec{0.8, 0.1});
  inst.add(0.0, 10.0, RVec{0.5, 0.5});
  inst.add(1.0, 2.0, RVec{0.1, 0.1});  // probe
  EXPECT_EQ(simulate(inst, "BestFit").packing.bin_of(2), 0u);
  EXPECT_EQ(simulate(inst, "BestFit:L1").packing.bin_of(2), 1u);
  // L2: ||(0.8,0.1)|| ~ 0.806 > ||(0.5,0.5)|| ~ 0.707.
  EXPECT_EQ(simulate(inst, "BestFit:L2").packing.bin_of(2), 0u);
}

TEST(WorstFit, LoadMeasureChangesDecision) {
  Instance inst(2);
  inst.add(0.0, 10.0, RVec{0.8, 0.1});
  inst.add(0.0, 10.0, RVec{0.5, 0.5});
  inst.add(1.0, 2.0, RVec{0.1, 0.1});
  EXPECT_EQ(simulate(inst, "WorstFit").packing.bin_of(2), 1u);
  EXPECT_EQ(simulate(inst, "WorstFit:L1").packing.bin_of(2), 0u);
}

TEST(BestFit, TieBreaksTowardEarliestBin) {
  Instance inst(1);
  inst.add(0.0, 10.0, RVec{0.6});
  inst.add(0.0, 10.0, RVec{0.6});
  inst.add(1.0, 2.0, RVec{0.2});
  EXPECT_EQ(simulate(inst, "BestFit").packing.bin_of(2), 0u);
}

TEST(NextFit, ReleasedBinNeverReceivesItems) {
  Instance inst(1);
  inst.add(0.0, 10.0, RVec{0.6});  // B0, current
  inst.add(0.0, 10.0, RVec{0.5});  // releases B0, opens B1
  inst.add(1.0, 2.0, RVec{0.3});   // fits B1 -> B1 (B0 also fits but released)
  inst.add(1.5, 2.0, RVec{0.3});   // B1 now 0.8 -> would overflow; opens B2
  const auto result = simulate(inst, "NextFit");
  EXPECT_EQ(result.packing.bin_of(2), 1u);
  EXPECT_EQ(result.packing.bin_of(3), 2u);
  EXPECT_EQ(result.bins_opened, 3u);
}

TEST(NextFit, ReleaseLogRecordsReleases) {
  NextFitPolicy policy;
  Instance inst(1);
  inst.add(0.0, 10.0, RVec{0.6});
  inst.add(0.0, 10.0, RVec{0.6});
  inst.add(0.0, 10.0, RVec{0.6});
  simulate(inst, policy);
  ASSERT_EQ(policy.release_log().size(), 2u);
  EXPECT_EQ(policy.release_log()[0],
            (NextFitPolicy::Release{0u, 0.0, 1u}));
  EXPECT_EQ(policy.release_log()[1],
            (NextFitPolicy::Release{1u, 0.0, 2u}));
}

TEST(NextFit, CurrentBinResetWhenItCloses) {
  Instance inst(1);
  inst.add(0.0, 1.0, RVec{0.6});  // B0 closes at 1
  inst.add(2.0, 3.0, RVec{0.6});  // must open B1
  const auto result = simulate(inst, "NextFit");
  EXPECT_EQ(result.bins_opened, 2u);
  EXPECT_EQ(result.packing.bin_of(1), 1u);
}

TEST(MoveToFront, MruOrderTracksUsage) {
  MoveToFrontPolicy policy(/*record_leader_history=*/true);
  Instance inst(1);
  inst.add(0.0, 10.0, RVec{0.6});   // B0
  inst.add(0.0, 10.0, RVec{0.55});  // B1 (front)
  inst.add(1.0, 9.0, RVec{0.4});    // fits B1 (0.95) -> B1 stays front
  inst.add(2.0, 9.0, RVec{0.3});    // only B0 fits -> B0 moves to front
  simulate(inst, policy);
  // All items still active at the end of arrivals; policy state lingers
  // only during the run, so check the recorded history instead.
  const auto& history = policy.leader_history();
  ASSERT_GE(history.size(), 2u);
  // Same-instant leader flips collapse, so after the t=0 arrivals B1 leads;
  // the pack into B0 at t=2 makes B0 the leader, caused by item 3.
  EXPECT_EQ(history.front(),
            (MoveToFrontPolicy::LeaderChange{0.0, 1u, 1u}));
  EXPECT_EQ(history[1], (MoveToFrontPolicy::LeaderChange{2.0, 0u, 3u}));
  EXPECT_EQ(history.back().leader, kNoBin);  // everything closed at the end
}

TEST(Policies, DecisionLogsNameItemIdsWhenRowsAreOutOfArrivalOrder) {
  // Items arrive in the order 1, 2, 0, so arrival ranks and ItemIds
  // disagree; the policies' logs and the packing must carry ItemIds.
  Instance inst(1);
  inst.add(2.0, 10.0, RVec{0.35});  // item 0: fits only bin 0
  inst.add(0.0, 10.0, RVec{0.6});   // item 1: opens bin 0
  inst.add(1.0, 10.0, RVec{0.7});   // item 2: opens bin 1

  NextFitPolicy next_fit;
  simulate(inst, next_fit);
  EXPECT_EQ(next_fit.release_log(),
            (std::vector<NextFitPolicy::Release>{{0u, 1.0, 2u},
                                                 {1u, 2.0, 0u}}));

  MoveToFrontPolicy mtf(/*record_leader_history=*/true);
  const SimResult result = simulate(inst, mtf, {.audit = true});
  EXPECT_EQ(mtf.leader_history(),
            (std::vector<MoveToFrontPolicy::LeaderChange>{
                {0.0, 0u, 1u},
                {1.0, 1u, 2u},
                {2.0, 0u, 0u},
                {10.0, kNoBin, kNoItem}}));
  EXPECT_EQ(result.packing.assignment(), (std::vector<BinId>{0u, 0u, 1u}));
  EXPECT_EQ(result.packing.bins()[0].items, (std::vector<ItemId>{1u, 0u}));
}

TEST(MoveToFront, LeaderHistoryCoversSpanWithoutGaps) {
  MoveToFrontPolicy policy(true);
  Instance inst(1);
  inst.add(0.0, 2.0, RVec{0.6});
  inst.add(1.0, 4.0, RVec{0.7});
  inst.add(3.0, 5.0, RVec{0.5});
  simulate(inst, policy);
  const auto& h = policy.leader_history();
  ASSERT_GE(h.size(), 2u);
  // Strictly increasing timestamps, alternating leaders, no consecutive
  // duplicates.
  for (std::size_t i = 0; i + 1 < h.size(); ++i) {
    EXPECT_LE(h[i].time, h[i + 1].time);
    EXPECT_NE(h[i].leader, h[i + 1].leader);
  }
  EXPECT_EQ(h.back().leader, kNoBin);
}

TEST(RandomFit, DeterministicUnderSeed) {
  Instance inst(1);
  for (int i = 0; i < 40; ++i) {
    inst.add(static_cast<Time>(i % 7), static_cast<Time>(i % 7 + 3),
             RVec{0.2 + 0.05 * (i % 5)});
  }
  const auto a = simulate(inst, "RandomFit", {}, /*policy_seed=*/99);
  const auto b = simulate(inst, "RandomFit", {}, /*policy_seed=*/99);
  EXPECT_EQ(a.packing.assignment(), b.packing.assignment());
}

TEST(RandomFit, SeedChangesDecisions) {
  Instance inst(1);
  for (int i = 0; i < 60; ++i) {
    inst.add(0.0, 10.0, RVec{0.05});
  }
  // Force several open bins first.
  Instance forced(1);
  forced.add(0.0, 10.0, RVec{0.6});
  forced.add(0.0, 10.0, RVec{0.6});
  forced.add(0.0, 10.0, RVec{0.6});
  for (int i = 0; i < 30; ++i) forced.add(1.0, 9.0, RVec{0.01});
  const auto a = simulate(forced, "RandomFit", {}, 1);
  const auto b = simulate(forced, "RandomFit", {}, 2);
  EXPECT_NE(a.packing.assignment(), b.packing.assignment());
}

TEST(Registry, ConstructsEveryStandardPolicy) {
  for (const std::string& name : standard_policy_names()) {
    PolicyPtr p = make_policy(name);
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(p->is_clairvoyant()) << name;
  }
}

TEST(Registry, ParameterizedNames) {
  EXPECT_EQ(make_policy("BestFit:L2")->name(), "BestFit[L2]");
  EXPECT_EQ(make_policy("WorstFit:L1")->name(), "WorstFit[L1]");
  EXPECT_TRUE(make_policy("MinExtensionFit")->is_clairvoyant());
  EXPECT_TRUE(make_policy("NoisyMinExtensionFit:0.5")->is_clairvoyant());
}

TEST(Registry, RejectsUnknownNames) {
  EXPECT_THROW(make_policy("BogoFit"), std::invalid_argument);
  EXPECT_THROW(make_policy(""), std::invalid_argument);
}

TEST(Registry, StandardPoliciesMatchSection7) {
  const auto names = standard_policy_names();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "MoveToFront");
  const auto policies = make_standard_policies();
  ASSERT_EQ(policies.size(), 7u);
}

TEST(LoadMeasure, NamesAndValues) {
  RVec v{0.3, 0.4};
  EXPECT_DOUBLE_EQ(measure_load(v, LoadMeasure::kLinf), 0.4);
  EXPECT_DOUBLE_EQ(measure_load(v, LoadMeasure::kL1), 0.7);
  EXPECT_DOUBLE_EQ(measure_load(v, LoadMeasure::kL2), 0.5);
  EXPECT_EQ(load_measure_name(LoadMeasure::kLinf), "Linf");
  EXPECT_EQ(load_measure_name(LoadMeasure::kL1), "L1");
  EXPECT_EQ(load_measure_name(LoadMeasure::kL2), "L2");
}

}  // namespace
}  // namespace dvbp

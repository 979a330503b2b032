// Deep semantic tests for the policy implementations: multi-step MRU
// evolution for Move To Front, Next Fit's release discipline, cross-policy
// divergence matrices on crafted scenarios, and exhaustive behaviour on
// every adversarial gadget for every policy (policies not targeted must
// escape).
#include <gtest/gtest.h>

#include "core/policies/move_to_front.hpp"
#include "core/policies/next_fit.hpp"
#include "core/policies/registry.hpp"
#include "core/simulator.hpp"
#include "gen/adversarial.hpp"
#include "gen/uniform.hpp"

namespace dvbp {
namespace {

// ---- Move To Front: multi-step MRU evolution --------------------------------

TEST(MtfDeep, PackingMovesBinAheadOfNewerBins) {
  // Open three bins, then pack into the oldest; it must become the MRU
  // choice for the next item.
  Instance inst(1);
  inst.add(0.0, 20.0, RVec{0.8});  // 0 -> B0
  inst.add(0.0, 20.0, RVec{0.8});  // 1 -> B1
  inst.add(0.0, 20.0, RVec{0.8});  // 2 -> B2 (MRU: B2 B1 B0)
  inst.add(1.0, 20.0, RVec{0.1});  // 3 -> B2 (front, fits: 0.9)
  inst.add(2.0, 20.0, RVec{0.15}); // 4: B2 would hit 1.05 -> next in MRU
                                   //    is B1 (0.95) -> B1 moves front
  inst.add(3.0, 20.0, RVec{0.04}); // 5 -> B1 (now front, 0.99)
  const auto result = simulate(inst, "MoveToFront", {.audit = true});
  EXPECT_EQ(result.packing.bin_of(3), 2u);
  EXPECT_EQ(result.packing.bin_of(4), 1u);
  EXPECT_EQ(result.packing.bin_of(5), 1u);
}

TEST(MtfDeep, ClosedLeaderHandsOffToNextMru) {
  MoveToFrontPolicy policy(true);
  Instance inst(1);
  inst.add(0.0, 10.0, RVec{0.9});  // B0
  inst.add(1.0, 3.0, RVec{0.9});   // B1 (leader), closes at 3
  simulate(inst, policy);
  const auto& h = policy.leader_history();
  // Leaders: B0 at 0 (item 0), B1 at 1 (item 1), back to B0 at 3 when B1
  // closes (no cause item), none at 10.
  using LC = MoveToFrontPolicy::LeaderChange;
  ASSERT_EQ(h.size(), 4u);
  EXPECT_EQ(h[0], (LC{0.0, 0u, 0u}));
  EXPECT_EQ(h[1], (LC{1.0, 1u, 1u}));
  EXPECT_EQ(h[2], (LC{3.0, 0u, kNoItem}));
  EXPECT_EQ(h[3], (LC{10.0, kNoBin, kNoItem}));
}

TEST(MtfDeep, NoLeaderAfterRun) {
  MoveToFrontPolicy policy(/*record_leader_history=*/true);
  Instance inst(1);
  inst.add(0.0, 1.0, RVec{0.5});
  simulate(inst, policy);
  ASSERT_FALSE(policy.leader_history().empty());
  EXPECT_EQ(policy.leader_history().back().leader, kNoBin);
}

TEST(MtfDeep, HistoryDisabledByDefault) {
  MoveToFrontPolicy policy;
  Instance inst(1);
  inst.add(0.0, 1.0, RVec{0.5});
  simulate(inst, policy);
  EXPECT_TRUE(policy.leader_history().empty());
}

// ---- Next Fit: release discipline -------------------------------------------

TEST(NextFitDeep, ReleasedBinStaysOpenUntilItemsDepart) {
  Instance inst(1);
  inst.add(0.0, 10.0, RVec{0.6});  // B0 current
  inst.add(1.0, 2.0, RVec{0.6});   // releases B0 -> B1
  const auto result = simulate(inst, "NextFit", {.audit = true});
  // B0 released at t=1 but open until its item departs at 10.
  EXPECT_DOUBLE_EQ(result.packing.bins()[0].closed, 10.0);
  EXPECT_DOUBLE_EQ(result.cost, 10.0 + 1.0);
}

TEST(NextFitDeep, OnlyOneCurrentBinEver) {
  // After many conflicting arrivals, the number of bins equals the number
  // of "does not fit current" events plus one.
  Instance inst(1);
  for (int i = 0; i < 10; ++i) inst.add(0.0, 5.0, RVec{0.6});
  const auto result = simulate(inst, "NextFit");
  EXPECT_EQ(result.bins_opened, 10u);  // 0.6 + 0.6 > 1 every time
}

TEST(NextFitDeep, RefitsCurrentAfterDepartures) {
  // Departures free capacity in the *current* bin, which NF may reuse.
  Instance inst(1);
  inst.add(0.0, 2.0, RVec{0.6});  // B0 current
  inst.add(0.0, 9.0, RVec{0.3});  // B0 (fits: 0.9)
  inst.add(3.0, 9.0, RVec{0.6});  // item 0 departed at 2 -> fits B0 again
  const auto result = simulate(inst, "NextFit", {.audit = true});
  EXPECT_EQ(result.bins_opened, 1u);
  EXPECT_EQ(result.packing.bin_of(2), 0u);
}

// ---- Divergence matrix -------------------------------------------------------

// A scenario where all seven Sec. 7 policies make pairwise-documented
// choices for the probe item: three open bins with loads 0.7 / 0.5 / 0.3
// (B0 oldest). MTF's MRU order is B2, B1, B0 after the opens.
Instance three_bin_probe() {
  Instance inst(1);
  inst.add(0.0, 10.0, RVec{0.7});   // B0
  inst.add(0.0, 10.0, RVec{0.5});   // B1 (0.5+0.7 > 1)
  inst.add(0.0, 10.0, RVec{0.3});   // B2? 0.3 fits B1! -- adjust below.
  return inst;
}

TEST(DivergenceMatrix, ProbePlacementPerPolicy) {
  // Build three bins with loads 0.7, 0.6, 0.55 (mutually exclusive opens),
  // then probe with 0.25 (fits all three).
  Instance inst(1);
  inst.add(0.0, 10.0, RVec{0.7});
  inst.add(0.0, 10.0, RVec{0.6});
  inst.add(0.0, 10.0, RVec{0.55});
  inst.add(1.0, 2.0, RVec{0.25});
  const ItemId probe = 3;

  EXPECT_EQ(simulate(inst, "FirstFit").packing.bin_of(probe), 0u);
  EXPECT_EQ(simulate(inst, "LastFit").packing.bin_of(probe), 2u);
  EXPECT_EQ(simulate(inst, "BestFit").packing.bin_of(probe), 0u);   // 0.7
  EXPECT_EQ(simulate(inst, "WorstFit").packing.bin_of(probe), 2u);  // 0.55
  EXPECT_EQ(simulate(inst, "MoveToFront").packing.bin_of(probe), 2u);
  EXPECT_EQ(simulate(inst, "NextFit").packing.bin_of(probe), 2u);  // current
  // RandomFit picks one of the three, deterministically per seed.
  const BinId r = simulate(inst, "RandomFit", {}, 7).packing.bin_of(probe);
  EXPECT_LE(r, 2u);
}

TEST(DivergenceMatrix, UnusedHelperCompiles) {
  // three_bin_probe documents a pitfall (0.3 fits B1); keep it exercised.
  const Instance inst = three_bin_probe();
  EXPECT_EQ(simulate(inst, "FirstFit").bins_opened, 2u);
}

// ---- Every policy on every gadget --------------------------------------------

// The gadgets must trap their targets (asserted in test_adversarial); here
// we assert the *non-targets* escape cheaply, which is the other half of
// the story and a strong cross-check of policy semantics.

TEST(GadgetMatrix, FirstFitEscapesMtfGadget) {
  const auto adv = gen::mtf_lower_bound(10, 8.0);
  const double mtf = simulate(adv.instance, "MoveToFront").cost;
  for (const char* name : {"FirstFit", "BestFit"}) {
    EXPECT_LT(simulate(adv.instance, name).cost * 3.0, mtf) << name;
  }
}

TEST(GadgetMatrix, AnyFitGadgetTrapsEvenRandomFit) {
  // Thm 5 leaves no choices: every full-list Any Fit policy, including the
  // randomized one, must produce the identical cost.
  const auto adv = gen::anyfit_lower_bound(3, 2, 6.0);
  const double ff = simulate(adv.instance, "FirstFit").cost;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_NEAR(simulate(adv.instance, "RandomFit", {}, seed).cost, ff, 1e-9);
  }
}

TEST(GadgetMatrix, NextFitAlsoFallsForTheAnyFitGadget) {
  // NF packs the R0 pairs identically (each even item fits the current
  // bin), opening the same dk bins; only its handling of R1 differs.
  const auto adv = gen::anyfit_lower_bound(3, 2, 6.0);
  const auto result = simulate(adv.instance, "NextFit");
  EXPECT_GE(result.bins_opened, adv.predicted_bins);
}

TEST(GadgetMatrix, MtfGadgetCostsExactlyPredicted) {
  for (std::size_t n : {2, 5, 12}) {
    const auto adv = gen::mtf_lower_bound(n, 5.0);
    EXPECT_DOUBLE_EQ(simulate(adv.instance, "MoveToFront").cost,
                     adv.predicted_online_cost);
  }
}

TEST(GadgetMatrix, BestFitGadgetBinsAreSingletonsAfterPhase) {
  const auto adv = gen::bestfit_unbounded(8);
  const auto result = simulate(adv.instance, "BestFit", {.audit = true});
  // Each bin: one filler + one tiny.
  for (const BinRecord& bin : result.packing.bins()) {
    EXPECT_EQ(bin.items.size(), 2u);
  }
}

// ---- Policy statefulness hygiene ---------------------------------------------

TEST(PolicyHygiene, EveryRegistryPolicyIsReusableAcrossInstances) {
  gen::UniformParams params;
  params.d = 2;
  params.n = 120;
  params.mu = 6;
  params.span = 60;
  params.bin_size = 8;
  const Instance a = gen::uniform_instance(params, 1);
  const Instance b = gen::uniform_instance(params, 2);
  for (const char* name :
       {"MoveToFront", "FirstFit", "BestFit", "NextFit", "LastFit",
        "RandomFit", "WorstFit", "HarmonicFit", "DurationClassFit",
        "MinExtensionFit", "NoisyMinExtensionFit:0.5"}) {
    PolicyPtr policy = make_policy(name, 77);
    const double a1 = simulate(a, *policy).cost;
    simulate(b, *policy);
    const double a2 = simulate(a, *policy).cost;
    EXPECT_DOUBLE_EQ(a1, a2) << name;
  }
}

}  // namespace
}  // namespace dvbp

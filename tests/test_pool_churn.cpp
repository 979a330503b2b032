// Allocator-churn soup for the slab/pool memory layout: the UsagePool
// free-list, the open-bin slots that compaction moves, the live-job table
// and its IdMap, and the SoA OpenBinTable all recycle storage, so this suite
// hammers arrive/depart/evict/replace interleavings and audits the dispatcher
// with PackingInvariantChecker throughout. It is part of the default
// test set and therefore runs under the ASan/UBSan `sanitizers` CI job,
// where a stale node index, a use-after-release, or an out-of-bounds
// lane write dies loudly instead of corrupting a later placement.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "core/bin_state.hpp"
#include "core/dispatcher.hpp"
#include "core/invariants.hpp"
#include "core/open_bin_table.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "core/pool.hpp"
#include "core/simulator.hpp"
#include "stats/rng.hpp"

namespace dvbp {
namespace {

RVec random_size(Xoshiro256pp& rng, std::size_t d) {
  RVec s(d);
  for (std::size_t j = 0; j < d; ++j) s[j] = rng.uniform(0.05, 0.6);
  return s;
}

// Long arrive/depart soup: jobs churn through bins far more times than
// the pool's initial slab holds, so the free-list recycles nodes across
// many generations of bins.
TEST(PoolChurn, ArriveDepartSoupKeepsInvariants) {
  for (std::size_t d : {2u, 9u}) {  // straddles RVec::kInlineDim = 8
    PolicyPtr policy = make_policy("BestFit", 99);
    Dispatcher dispatcher(d, *policy);
    PackingRecorder recorder;
    dispatcher.set_recorder(&recorder);
    PackingInvariantChecker checker;
    Xoshiro256pp rng(0xC0FFEE + d);

    std::vector<JobId> live;
    Time now = 0.0;
    for (int step = 0; step < 4000; ++step) {
      now += rng.uniform(0.0, 0.1);
      const bool do_depart =
          !live.empty() && (live.size() > 64 || rng.uniform() < 0.45);
      if (do_depart) {
        const std::size_t pick =
            static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
        dispatcher.depart(now, live[pick]);
        live[pick] = live.back();
        live.pop_back();
      } else {
        live.push_back(dispatcher.arrive(now, random_size(rng, d)).job);
      }
      if (step % 250 == 0) {
        const auto violation = checker.check(dispatcher, &recorder);
        ASSERT_FALSE(violation.has_value()) << *violation << " at step "
                                            << step << " d=" << d;
      }
    }
    while (!live.empty()) {
      now += 0.01;
      dispatcher.depart(now, live.back());
      live.pop_back();
    }
    EXPECT_EQ(dispatcher.open_bins(), 0u);
    const auto violation = checker.check(dispatcher, &recorder);
    EXPECT_FALSE(violation.has_value()) << *violation;
  }
}

// Evict/replace mixed in: eviction releases a pool node without ending
// the job; replace() re-allocates one (possibly the same recycled slot)
// in a different bin. Interleaved with departures this is the worst-case
// free-list churn pattern.
TEST(PoolChurn, EvictReplaceRecyclesNodesSafely) {
  const std::size_t d = 5;
  PolicyPtr policy = make_policy("FirstFit", 7);
  Dispatcher dispatcher(d, *policy);
  PackingRecorder recorder;
  dispatcher.set_recorder(&recorder);
  PackingInvariantChecker checker;
  Xoshiro256pp rng(0xBADF00D);

  std::vector<JobId> placed;   // live, not in limbo
  std::vector<JobId> limbo;    // evicted, awaiting replace
  Time now = 0.0;
  for (int step = 0; step < 3000; ++step) {
    now += rng.uniform(0.0, 0.05);
    const double roll = rng.uniform();
    if (!limbo.empty() && (limbo.size() > 16 || roll < 0.3)) {
      dispatcher.replace(now, limbo.back());
      placed.push_back(limbo.back());
      limbo.pop_back();
    } else if (!placed.empty() && roll < 0.5) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, placed.size() - 1));
      dispatcher.evict(now, placed[pick]);
      limbo.push_back(placed[pick]);
      placed[pick] = placed.back();
      placed.pop_back();
    } else if (!placed.empty() && (placed.size() > 48 || roll < 0.75)) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, placed.size() - 1));
      dispatcher.depart(now, placed[pick]);
      placed[pick] = placed.back();
      placed.pop_back();
    } else {
      placed.push_back(dispatcher.arrive(now, random_size(rng, d)).job);
    }
    if (step % 200 == 0) {
      const auto violation = checker.check(dispatcher, &recorder);
      ASSERT_FALSE(violation.has_value()) << *violation << " at step "
                                          << step;
    }
  }
  // Drain limbo first (jobs must be placed to depart), then everything.
  for (JobId job : limbo) {
    now += 0.01;
    dispatcher.replace(now, job);
    placed.push_back(job);
  }
  for (JobId job : placed) {
    now += 0.01;
    dispatcher.depart(now, job);
  }
  EXPECT_EQ(dispatcher.open_bins(), 0u);
  EXPECT_EQ(dispatcher.jobs_active(), 0u);
  const auto violation = checker.check(dispatcher, &recorder);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

// A closed bin leaves a hole in the open-bin table until the next
// compaction. Holes must never show: checked after every op of a soup long
// enough to cross many compactions, for every policy that reads the table
// or the views a different way.
TEST(OpenBinHoles, NeverLeakIntoDecisionsOrState) {
  const char* policies[] = {"FirstFit", "LastFit",    "NextFit",
                            "BestFit",  "WorstFit",   "MoveToFront",
                            "HarmonicFit"};
  for (const char* name : policies) {
    SCOPED_TRACE(name);
    const std::size_t d = 3;
    PolicyPtr policy = make_policy(name, 5);
    Dispatcher dispatcher(d, *policy);
    PackingRecorder recorder;
    dispatcher.set_recorder(&recorder);
    PackingInvariantChecker checker;
    Xoshiro256pp rng(0x401E5);

    std::vector<JobId> placed;
    std::vector<JobId> limbo;
    std::size_t compactions = 0;
    std::size_t prev_slots = 0;
    Time now = 0.0;
    for (int step = 0; step < 800; ++step) {
      now += rng.uniform(0.0, 0.05);

      // A copy restored from a checkpoint has no holes; it must hash the
      // same and make the same next decision.
      serial::Writer state;
      dispatcher.save_state(state);
      policy->save_state(state);
      PolicyPtr copy_policy = make_policy(name, 5);
      Dispatcher copy(d, *copy_policy);
      serial::Reader in(state.bytes());
      copy.restore_state(in);
      copy_policy->restore_state(in);
      ASSERT_EQ(dispatcher_state_hash(copy), dispatcher_state_hash(dispatcher))
          << "step " << step;

      const double roll = rng.uniform();
      if (!limbo.empty() && (limbo.size() > 8 || roll < 0.15)) {
        // Back into a random open bin that can hold it, else a fresh bin.
        const JobId job = limbo.back();
        limbo.pop_back();
        std::vector<BinId> fitting;
        const auto views = dispatcher.open_views();
        for (std::size_t slot = 0; slot < views.size(); ++slot) {
          if (dispatcher.open_table().fits(
                  slot, dispatcher.job(job)->size.data())) {
            fitting.push_back(views[slot].id);
          }
        }
        const BinId target =
            fitting.empty() || rng.uniform() < 0.3
                ? kNoBin
                : fitting[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(fitting.size()) - 1))];
        ASSERT_EQ(dispatcher.replace(now, job, target),
                  copy.replace(now, job, target));
        placed.push_back(job);
      } else if (!placed.empty() && roll < 0.25) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(placed.size()) - 1));
        dispatcher.evict(now, placed[pick]);
        limbo.push_back(placed[pick]);
        placed[pick] = placed.back();
        placed.pop_back();
      } else if (!placed.empty() && (placed.size() > 16 || roll < 0.6)) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(placed.size()) - 1));
        dispatcher.depart(now, placed[pick]);
        placed[pick] = placed.back();
        placed.pop_back();
      } else {
        RVec size(d);
        for (std::size_t j = 0; j < d; ++j) size[j] = rng.uniform(0.1, 0.6);
        const auto admitted = dispatcher.arrive(now, size);
        ASSERT_EQ(admitted.bin, copy.arrive(now, size).bin) << "step " << step;
        placed.push_back(admitted.job);
      }

      const auto violation = checker.check(dispatcher, &recorder);
      ASSERT_FALSE(violation.has_value()) << *violation << " at step " << step;
      const auto views = dispatcher.open_views();
      std::size_t live = 0;
      for (const BinView& view : views) {
        if (view.id != kNoBin) ++live;
      }
      ASSERT_EQ(live, dispatcher.open_bins()) << "step " << step;
      if (views.size() < prev_slots) ++compactions;
      prev_slots = views.size();
    }
    EXPECT_GE(compactions, 50u);  // 59 to 114 with this seed
  }
}

// FNV-1a over the checkpoint bytes of a dispatcher driven through a
// seeded arrive/depart/evict/replace soup, folded in every 50 ops and at
// the end. A replace aims at a random open bin and falls back to a fresh
// one when the engine refuses the target. The soup crosses many
// compactions and ends with jobs in limbo.
std::uint64_t state_stream_digest(const char* name, std::size_t d) {
  PolicyPtr policy = make_policy(name, 11);
  Dispatcher dispatcher(d, *policy);
  Xoshiro256pp rng(0x5EED5 + d);
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto fold = [&] {
    serial::Writer out;
    dispatcher.save_state(out);
    for (const std::uint8_t byte : out.bytes()) {
      h ^= byte;
      h *= 0x100000001B3ull;
    }
  };
  std::vector<JobId> placed;
  std::vector<JobId> limbo;
  std::size_t compactions = 0;
  std::size_t prev_slots = 0;
  Time now = 0.0;
  for (int step = 0; step < 1500; ++step) {
    now += rng.uniform(0.0, 0.05);
    const double roll = rng.uniform();
    if (!limbo.empty() && (limbo.size() > 8 || roll < 0.15)) {
      const JobId job = limbo.back();
      limbo.pop_back();
      std::vector<BinId> open;
      for (const BinView& view : dispatcher.open_views()) {
        if (view.id != kNoBin) open.push_back(view.id);
      }
      const BinId target =
          open.empty() ? kNoBin
                       : open[static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(open.size()) - 1))];
      try {
        dispatcher.replace(now, job, target);
      } catch (const PolicyViolation&) {
        dispatcher.replace(now, job);
      }
      placed.push_back(job);
    } else if (!placed.empty() && roll < 0.25) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(placed.size()) - 1));
      dispatcher.evict(now, placed[pick]);
      limbo.push_back(placed[pick]);
      placed[pick] = placed.back();
      placed.pop_back();
    } else if (!placed.empty() && (placed.size() > 24 || roll < 0.6)) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(placed.size()) - 1));
      dispatcher.depart(now, placed[pick]);
      placed[pick] = placed.back();
      placed.pop_back();
    } else {
      RVec size(d);
      for (std::size_t j = 0; j < d; ++j) size[j] = rng.uniform(0.05, 0.6);
      placed.push_back(dispatcher.arrive(now, size, now + 1.0).job);
    }
    const std::size_t slots = dispatcher.open_views().size();
    if (slots < prev_slots) ++compactions;
    prev_slots = slots;
    if (step % 50 == 49) fold();
  }
  EXPECT_GE(compactions, 20u);
  EXPECT_GT(dispatcher.jobs_evicted(), 0u);
  fold();
  return h;
}

// The checkpoint stream of the soup above, pinned per policy and d (9
// puts each size past RVec's inline storage): the open-bin layout may
// change, the bytes a checkpoint holds may not.
TEST(PoolChurn, CheckpointStreamOfAChurnedDispatcherIsPinned) {
  const struct {
    const char* policy;
    std::size_t d;
    std::uint64_t digest;
  } pinned[] = {
      {"FirstFit", 3, 11460430924484018983ull},
      {"FirstFit", 9, 15300005225555896627ull},
      {"BestFit", 3, 11245539723054744813ull},
      {"BestFit", 9, 8700846058821240758ull},
      {"NextFit", 3, 4869585452789114850ull},
      {"NextFit", 9, 10377806688425124445ull},
      {"MoveToFront", 3, 11966302319992376763ull},
      {"MoveToFront", 9, 9598087302406426216ull},
  };
  for (const auto& p : pinned) {
    SCOPED_TRACE(std::string(p.policy) + " d=" + std::to_string(p.d));
    EXPECT_EQ(state_stream_digest(p.policy, p.d), p.digest);
  }
}

// The live-job table recycles the slots of departed jobs: a job admitted
// first keeps its item bits while thousands of later jobs come and go
// through the slots around it, and a departed id is gone for good.
TEST(PoolChurn, LiveJobTableKeepsAJobThroughSlotReuse) {
  PolicyPtr policy = make_policy("NextFit", 1);
  Dispatcher dispatcher(2, *policy);
  const auto first = dispatcher.arrive(0.0, RVec{0.3, 0.2});
  for (int i = 1; i < 2000; ++i) {
    const auto job = dispatcher.arrive(0.001 * i, RVec{0.01, 0.01}).job;
    if (i % 3 != 0) dispatcher.depart(0.001 * i, job);
  }
  const Item* item = dispatcher.job(first.job);
  ASSERT_NE(item, nullptr);
  EXPECT_DOUBLE_EQ(item->size[0], 0.3);
  EXPECT_EQ(dispatcher.bin_of(first.job), first.bin);
  EXPECT_EQ(dispatcher.job(1), nullptr);  // departed
  EXPECT_EQ(dispatcher.jobs_active(), 1u + 1999u / 3u);
}

// IdMap against std::unordered_map under insert/erase churn: backward-
// shift deletion must keep every surviving key reachable.
TEST(PoolChurn, IdMapFindsEveryMappedKeyThroughChurn) {
  IdMap map;
  std::unordered_map<std::uint32_t, std::uint32_t> want;
  Xoshiro256pp rng(0x1D3A9);
  for (int step = 0; step < 20000; ++step) {
    // Few distinct keys: long probe runs, many erase-then-reinsert cycles.
    const auto key = static_cast<std::uint32_t>(rng.uniform_int(0, 511));
    if (want.count(key) > 0) {
      map.erase(key);
      want.erase(key);
    } else {
      const auto slot = static_cast<std::uint32_t>(step);
      map.insert(key, slot);
      want.emplace(key, slot);
    }
    ASSERT_EQ(map.size(), want.size());
  }
  for (std::uint32_t key = 0; key < 512; ++key) {
    const auto it = want.find(key);
    EXPECT_EQ(map.find(key), it == want.end() ? IdMap::kAbsent : it->second)
        << "key " << key;
  }
}

// The checker audits a dispatcher that admitted jobs under their ItemIds
// (simulate() does, whenever a CSV's rows are not in arrival order): it
// looks each listed job up by id, not by admission rank.
TEST(InvariantChecker, AcceptsJobsAdmittedUnderItemIdsOutOfOrder) {
  PolicyPtr policy = make_policy("FirstFit", 1);
  Dispatcher dispatcher(1, *policy);
  PackingRecorder recorder;
  dispatcher.set_recorder(&recorder);
  PackingInvariantChecker checker;
  dispatcher.arrive(0.0, Item(7, 0.0, 100.0, RVec{0.6}));  // bin 0
  dispatcher.arrive(1.0, Item(3, 1.0, 100.0, RVec{0.6}));  // bin 1
  dispatcher.arrive(2.0, Item(9, 2.0, 100.0, RVec{0.3}));  // bin 0
  const auto violation = checker.check(dispatcher, &recorder);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(InvariantChecker, AcceptsAnItemIdBelowItsAdmissionRank) {
  PolicyPtr policy = make_policy("FirstFit", 1);
  Dispatcher dispatcher(1, *policy);
  PackingRecorder recorder;
  dispatcher.set_recorder(&recorder);
  PackingInvariantChecker checker;
  dispatcher.arrive(0.0, Item(1, 0.0, 100.0, RVec{0.6}));  // bin 0
  dispatcher.arrive(1.0, Item(0, 1.0, 100.0, RVec{0.6}));  // bin 1
  const auto violation = checker.check(dispatcher, &recorder);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

// UsagePool free-list unit semantics: release makes the slot available
// for the next alloc (LIFO), and the slab only grows when the free list
// is empty.
TEST(PoolChurn, UsagePoolRecyclesReleasedNodes) {
  UsagePool pool;
  const std::uint32_t a = pool.alloc(1, 10.0);
  const std::uint32_t b = pool.alloc(2, 20.0);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool[a].item, 1u);
  EXPECT_DOUBLE_EQ(pool[b].departure, 20.0);
  const std::size_t slab = pool.slab_size();
  pool.release(a);
  const std::uint32_t c = pool.alloc(3, 30.0);
  EXPECT_EQ(c, a);  // LIFO reuse of the freed slot
  EXPECT_EQ(pool.slab_size(), slab);
  EXPECT_EQ(pool[c].item, 3u);
}

}  // namespace
}  // namespace dvbp

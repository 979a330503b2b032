// Tests for the streaming Dispatcher: API semantics, misuse rejection,
// live cost metering, and the differential guarantee that replaying an
// Instance's event stream reproduces simulate() exactly for every policy.
#include "core/dispatcher.hpp"

#include <gtest/gtest.h>

#include "core/event.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/first_fit.hpp"
#include "core/policies/registry.hpp"
#include "core/simulator.hpp"
#include "gen/uniform.hpp"

namespace dvbp {
namespace {

TEST(Dispatcher, BasicLifecycle) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(2, *policy);
  const auto a = dispatcher.arrive(0.0, RVec{0.5, 0.5});
  EXPECT_EQ(a.bin, 0u);
  EXPECT_TRUE(a.opened_new_bin);
  const auto b = dispatcher.arrive(1.0, RVec{0.5, 0.4});
  EXPECT_EQ(b.bin, 0u);  // fits alongside
  EXPECT_FALSE(b.opened_new_bin);
  EXPECT_EQ(dispatcher.open_bins(), 1u);
  EXPECT_EQ(dispatcher.jobs_active(), 2u);

  dispatcher.depart(3.0, a.job);
  EXPECT_EQ(dispatcher.open_bins(), 1u);  // b still there
  dispatcher.depart(5.0, b.job);
  EXPECT_EQ(dispatcher.open_bins(), 0u);
  EXPECT_EQ(dispatcher.bins_opened(), 1u);
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(10.0), 5.0);
}

TEST(Dispatcher, LiveCostMetersOpenBins) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy);
  dispatcher.arrive(0.0, RVec{0.9});
  dispatcher.arrive(1.0, RVec{0.9});  // second bin
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(2.0), 2.0 + 1.0);
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(4.0), 4.0 + 3.0);
}

TEST(Dispatcher, CostSoFarClampsClosedBinsAtHistoricalTimestamps) {
  // Regression: a closed bin used to contribute its full usage time even
  // when `at` predated its close, overstating historical costs. Times
  // before the last event need the closed bins' records: a recorder.
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy);
  PackingRecorder recorder;
  dispatcher.set_recorder(&recorder);
  const auto a = dispatcher.arrive(0.0, RVec{0.9});   // bin 0: [0, 10)
  const auto b = dispatcher.arrive(2.0, RVec{0.9});   // bin 1: [2, ...)
  dispatcher.depart(10.0, a.job);                     // bin 0 closes at 10
  // at=5: bin 0 contributes min(5,10)-0 = 5 (not 10), bin 1 contributes 3.
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(5.0), 5.0 + 3.0);
  // at=1 predates bin 1 entirely: only bin 0's first unit counts.
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(1.0), 1.0);
  // at past every event: closed bin in full, open bin metered to `at`.
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(12.0), 10.0 + 10.0);
  dispatcher.depart(14.0, b.job);
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(14.0), 10.0 + 12.0);
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(12.0), 10.0 + 10.0);
}

TEST(Dispatcher, UnknownDeparturesUseInfinity) {
  // Non-clairvoyant policies never read the expected departure; the
  // default (infinity) must flow through without breaking bookkeeping.
  PolicyPtr policy = make_policy("MoveToFront");
  Dispatcher dispatcher(1, *policy);
  const auto a = dispatcher.arrive(0.0, RVec{0.6});
  const auto b = dispatcher.arrive(0.5, RVec{0.6});
  dispatcher.depart(2.0, a.job);
  dispatcher.depart(3.0, b.job);
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(3.0), 2.0 + 2.5);
}

TEST(Dispatcher, RejectsMisuse) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(2, *policy);
  EXPECT_THROW(Dispatcher(0, *policy), std::invalid_argument);
  EXPECT_THROW(Dispatcher(1, *policy, 0.5), std::invalid_argument);

  const auto a = dispatcher.arrive(1.0, RVec{0.5, 0.5});
  EXPECT_THROW(dispatcher.arrive(0.5, RVec{0.1, 0.1}),
               std::invalid_argument);  // time regression
  EXPECT_THROW(dispatcher.arrive(2.0, RVec{0.5}),
               std::invalid_argument);  // dimension mismatch
  EXPECT_THROW(dispatcher.arrive(2.0, RVec{1.5, 0.1}),
               std::invalid_argument);  // oversize
  EXPECT_THROW(dispatcher.arrive(2.0, RVec{0.1, 0.1}, 1.0),
               std::invalid_argument);  // departure before arrival
  EXPECT_THROW(dispatcher.depart(2.0, 999), std::invalid_argument);
  dispatcher.depart(3.0, a.job);
  EXPECT_THROW(dispatcher.depart(4.0, a.job),
               std::invalid_argument);  // double departure
}

TEST(Dispatcher, BinOfTracksPlacementUntilDeparture) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy);
  const auto a = dispatcher.arrive(0.0, RVec{0.5});
  EXPECT_EQ(dispatcher.bin_of(a.job), a.bin);
  dispatcher.depart(1.0, a.job);
  EXPECT_EQ(dispatcher.bin_of(a.job), kNoBin);
  EXPECT_EQ(dispatcher.bin_of(42), kNoBin);  // never admitted
}

TEST(Dispatcher, ClairvoyantPolicySeesExpectedDepartures) {
  PolicyPtr policy = make_policy("MinExtensionFit");
  Dispatcher dispatcher(1, *policy);
  const auto long_bin = dispatcher.arrive(0.0, RVec{0.6}, 100.0);
  const auto short_bin = dispatcher.arrive(0.0, RVec{0.6}, 2.0);
  ASSERT_NE(long_bin.bin, short_bin.bin);
  // A long probe should co-locate with the long-lived bin.
  const auto probe = dispatcher.arrive(1.0, RVec{0.3}, 50.0);
  EXPECT_EQ(probe.bin, long_bin.bin);
}

TEST(Dispatcher, AugmentedCapacityApplies) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy, 1.5);
  dispatcher.arrive(0.0, RVec{0.8});
  const auto b = dispatcher.arrive(0.0, RVec{0.7});  // 1.5 total: fits
  EXPECT_EQ(b.bin, 0u);
  EXPECT_FALSE(b.opened_new_bin);
}

/// First Fit, except that one armed decision names a bin that was never
/// opened.
class MisfireOncePolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "MisfireOnce"; }
  BinId select_bin(Time now, const Item& item,
                   std::span<const BinView> open_bins,
                   const OpenBinTable& table) override {
    if (armed) {
      armed = false;
      return 999;
    }
    return first_fit_.select_bin(now, item, open_bins, table);
  }

  bool armed = false;

 private:
  FirstFitPolicy first_fit_;
};

TEST(Dispatcher, RejectedDecisionLeavesStateUnchanged) {
  MisfireOncePolicy policy;
  Dispatcher dispatcher(1, policy);
  const auto a = dispatcher.arrive(0.0, RVec{0.5});
  policy.armed = true;
  EXPECT_THROW(dispatcher.arrive(1.0, RVec{0.3}), PolicyViolation);
  EXPECT_EQ(dispatcher.jobs_admitted(), 1u);
  EXPECT_EQ(dispatcher.jobs_active(), 1u);

  const auto b = dispatcher.arrive(1.0, RVec{0.3});
  EXPECT_EQ(b.job, 1u);
  EXPECT_EQ(dispatcher.bin_of(b.job), a.bin);
  dispatcher.depart(2.0, b.job);
  EXPECT_EQ(dispatcher.bin_of(b.job), kNoBin);
  dispatcher.depart(3.0, a.job);
  EXPECT_EQ(dispatcher.jobs_active(), 0u);
  EXPECT_EQ(dispatcher.open_bins(), 0u);
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(3.0), 3.0);
}

TEST(Dispatcher, AJobKeepsItsItemIdThroughACheckpoint) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy);
  PackingRecorder recorder;
  dispatcher.set_recorder(&recorder);
  const auto a = dispatcher.arrive(0.0, Item(7, 0.0, 5.0, RVec{0.5}));
  EXPECT_EQ(a.job, 7u);
  EXPECT_EQ(recorder.bin_records()[a.bin].items, (std::vector<ItemId>{7u}));
  serial::Writer out;
  dispatcher.save_state(out);

  PolicyPtr policy2 = make_policy("FirstFit");
  Dispatcher restored(1, *policy2);
  serial::Reader in(out.bytes());
  restored.restore_state(in);
  ASSERT_NE(restored.job(7), nullptr);
  EXPECT_EQ(restored.bin_of(7), a.bin);
  EXPECT_EQ(restored.job(0), nullptr);
  EXPECT_EQ(dispatcher_state_hash(restored), dispatcher_state_hash(dispatcher));
  restored.depart(1.0, 7);
  EXPECT_EQ(restored.jobs_active(), 0u);
}

TEST(Dispatcher, AnArrivalUnderALiveIdIsRefusedAndChangesNothing) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy);
  dispatcher.arrive(0.0, Item(3, 0.0, 5.0, RVec{0.5}));
  const std::uint64_t before = dispatcher_state_hash(dispatcher);
  EXPECT_THROW(dispatcher.arrive(1.0, Item(3, 1.0, 5.0, RVec{0.2})),
               std::invalid_argument);
  EXPECT_EQ(dispatcher_state_hash(dispatcher), before);
  // arrive(size) names the job jobs_admitted(): 1 is free, 3 is not.
  EXPECT_EQ(dispatcher.arrive(1.0, RVec{0.2}).job, 1u);
  dispatcher.arrive(1.0, RVec{0.1});
  EXPECT_THROW(dispatcher.arrive(1.0, RVec{0.1}), std::invalid_argument);
  EXPECT_EQ(dispatcher.jobs_admitted(), 3u);
}

TEST(Dispatcher, AnEarlierCostQueryNeedsARecorder) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy);
  PackingRecorder recorder;
  const auto a = dispatcher.arrive(0.0, RVec{0.5});
  dispatcher.depart(4.0, a.job);
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(4.0), 4.0);
  EXPECT_THROW(dispatcher.cost_so_far(2.0), std::invalid_argument);

  Dispatcher recorded(1, *policy);
  recorded.set_recorder(&recorder);
  const auto b = recorded.arrive(0.0, RVec{0.5});
  recorded.depart(4.0, b.job);
  EXPECT_DOUBLE_EQ(recorded.cost_so_far(2.0), 2.0);
  EXPECT_DOUBLE_EQ(recorder.cost_at(2.0), 2.0);
  EXPECT_DOUBLE_EQ(recorder.cost(), 4.0);
}

TEST(Dispatcher, AStateStreamOfAnotherVersionIsRefusedByName) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy);
  serial::Writer v3;
  v3.u64(0xFFFFFFFF00000003ull);
  v3.u64(1);
  serial::Reader in(v3.bytes());
  try {
    dispatcher.restore_state(in);
    ADD_FAILURE() << "a v3 stream was restored";
  } catch (const serial::SerialError& e) {
    EXPECT_NE(std::string(e.what()).find("v3"), std::string::npos)
        << e.what();
  }
}

// `d`'s state stream with its open-bin section (the count, then each open
// bin's id, opening time, load and item list) rewritten to list `ids`; the
// live-job section that closes the stream is kept. Every bin `d` has
// opened must still be open.
std::vector<std::uint8_t> stream_with_open_bins(
    const Dispatcher& d, const std::vector<BinId>& ids) {
  serial::Writer whole;
  d.save_state(whole);
  std::vector<std::vector<std::uint8_t>> states;  // by bin id
  std::size_t section = 8;                        // the u64 count
  for (BinId id = 0; id < d.bins_opened(); ++id) {
    serial::Writer state;
    state.u32(id);
    state.f64(d.open_bin_state(id)->opened_at());
    std::size_t slot = 0;
    while (d.open_views()[slot].id != id) ++slot;
    const RVec load = d.open_table().load(slot);
    state.u64(load.dim());
    for (const double c : load) state.f64(c);
    d.open_bin_state(id)->save_state(state);
    states.push_back(state.bytes());
    section += state.bytes().size();
  }
  std::size_t jobs = 8;  // the u64 count, then each job's item and bin
  d.for_each_job([&jobs](const Dispatcher::LiveJob& job) {
    serial::Writer item;
    job.item.save_state(item);
    jobs += item.bytes().size() + 4;
  });
  serial::Writer open;
  open.u64(ids.size());
  for (BinId id : ids) {
    for (std::uint8_t b : states[id]) open.u8(b);
  }
  const auto& bytes = whole.bytes();
  const auto jobs_begin = bytes.end() - static_cast<long>(jobs);
  std::vector<std::uint8_t> out(bytes.begin(),
                                jobs_begin - static_cast<long>(section));
  out.insert(out.end(), open.bytes().begin(), open.bytes().end());
  out.insert(out.end(), jobs_begin, bytes.end());
  return out;
}

// Two FirstFit bins, 0 and 1, both open and both able to take 0.3.
class RestoreOrderTest : public ::testing::Test {
 protected:
  RestoreOrderTest() : saved_(1, saved_policy_), restored_(1, policy_) {
    saved_.arrive(0.0, RVec{0.6});
    saved_.arrive(1.0, RVec{0.6});
  }

  void restore_with_open_bins(const std::vector<BinId>& ids) {
    const std::vector<std::uint8_t> stream = stream_with_open_bins(saved_, ids);
    serial::Reader in(stream);
    restored_.restore_state(in);
  }

  FirstFitPolicy saved_policy_;
  FirstFitPolicy policy_;
  Dispatcher saved_;
  Dispatcher restored_;
};

TEST_F(RestoreOrderTest, StreamInOpeningOrderRestoresTheSameDecisions) {
  restore_with_open_bins({0, 1});
  EXPECT_EQ(restored_.open_bins(), 2u);
  EXPECT_EQ(restored_.arrive(2.0, RVec{0.3}).bin, 0u);
  EXPECT_EQ(saved_.arrive(2.0, RVec{0.3}).bin, 0u);
}

TEST_F(RestoreOrderTest, OpenBinsOutOfOpeningOrderAreRejected) {
  // Restored as given, bin 1 would come first and take the next 0.3 job,
  // which the saved dispatcher puts in bin 0.
  EXPECT_THROW(restore_with_open_bins({1, 0}), serial::SerialError);
}

TEST_F(RestoreOrderTest, AnOpenBinListedTwiceIsRejected) {
  EXPECT_THROW(restore_with_open_bins({0, 0}), serial::SerialError);
}

// ---- Differential: streaming replay == batch simulation -------------------

class DispatcherDifferentialTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(DispatcherDifferentialTest, ReplayMatchesSimulate) {
  gen::UniformParams params;
  params.d = 2;
  params.n = 300;
  params.mu = 10;
  params.span = 120;
  params.bin_size = 10;
  const Instance inst = gen::uniform_instance(params, 77);

  PolicyPtr batch_policy = make_policy(GetParam(), 5);
  const SimResult batch = simulate(inst, *batch_policy);

  PolicyPtr live_policy = make_policy(GetParam(), 5);
  Dispatcher dispatcher(inst.dim(), *live_policy);
  PackingRecorder recorder;
  dispatcher.set_recorder(&recorder);
  // JobIds are assigned in arrival order == instance order, so they
  // coincide with ItemIds.
  for (const Event& ev : build_event_stream(inst)) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      const auto admission =
          dispatcher.arrive(item.arrival, item.size, item.departure);
      ASSERT_EQ(admission.job, item.id);
    } else {
      dispatcher.depart(ev.time, item.id);
    }
  }

  EXPECT_EQ(dispatcher.bins_opened(), batch.bins_opened);
  EXPECT_DOUBLE_EQ(dispatcher.cost_so_far(inst.last_departure()),
                   batch.cost);
  // Bin-by-bin identical placement.
  ASSERT_EQ(recorder.num_bins(), batch.packing.num_bins());
  const std::vector<BinRecord> records = recorder.bin_records();
  for (std::size_t b = 0; b < recorder.num_bins(); ++b) {
    EXPECT_EQ(records[b].items, batch.packing.bins()[b].items);
    EXPECT_DOUBLE_EQ(records[b].opened, batch.packing.bins()[b].opened);
    EXPECT_DOUBLE_EQ(records[b].closed, batch.packing.bins()[b].closed);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DispatcherDifferentialTest,
                         ::testing::Values("MoveToFront", "FirstFit",
                                           "BestFit", "NextFit", "LastFit",
                                           "RandomFit", "WorstFit",
                                           "HarmonicFit",
                                           "MinExtensionFit",
                                           "DurationClassFit"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

}  // namespace
}  // namespace dvbp

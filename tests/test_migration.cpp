// Migration layer unit suite: the evict/replace Dispatcher primitives,
// the PackingInvariantChecker (positive and negative), the Rebalancer's
// budget accounting, cost-vs-bounds on a real workload, the JSONL trace
// round-trip for migrated runs, and the journaled evict/replace path of
// persist::DurableDispatcher (run, crash-free recover, bit-compare).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/invariants.hpp"
#include "core/policies/registry.hpp"
#include "core/rebalancer.hpp"
#include "core/serial.hpp"
#include "core/simulator.hpp"
#include "gen/uniform.hpp"
#include "obs/observer.hpp"
#include "obs/replay.hpp"
#include "obs/trace.hpp"
#include "opt/lower_bounds.hpp"
#include "packing_hash.hpp"
#include "persist/durable.hpp"
#include "persist/journal.hpp"

namespace dvbp {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kPolicySeed = 0xD1CEu;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("dvbp_migration_" + tag + "_" + std::to_string(++counter) +
            "_" + std::to_string(static_cast<unsigned>(::getpid())));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

RVec vec2(double a, double b) { return RVec{a, b}; }

Instance small_instance() {
  gen::UniformParams params;
  params.d = 2;
  params.n = 300;
  params.mu = 12;
  params.span = 100;
  params.bin_size = 9;
  return gen::uniform_instance(params, 0xA11CE);
}

/// Feeds the full event stream; job ids equal item ids (arrival order).
/// Calls `after_depart(time)` after every departure.
template <typename Service, typename AfterDepart>
void feed(Service& service, const Instance& inst, AfterDepart after_depart) {
  for (const Event& ev : build_event_stream(inst)) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      service.arrive(item.arrival, item.size, item.departure);
    } else {
      service.depart(ev.time, item.id);
      after_depart(ev.time);
    }
  }
}

std::vector<std::uint8_t> saved_state(const Dispatcher& d) {
  serial::Writer out;
  d.save_state(out);
  return out.take();
}

// --- Evict / replace primitives ------------------------------------------

TEST(Evict, RemovesFromBinButKeepsJobActive) {
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(2, *policy);
  const JobId a = d.arrive(0.0, vec2(0.4, 0.4), 10.0).job;
  const JobId b = d.arrive(1.0, vec2(0.4, 0.4), 10.0).job;
  ASSERT_EQ(d.bin_of(a), d.bin_of(b));  // FirstFit co-locates them
  const BinId bin = d.bin_of(a);

  const Dispatcher::Eviction ev = d.evict(2.0, a);
  EXPECT_EQ(ev.bin, bin);
  EXPECT_FALSE(ev.emptied);  // b still lives there
  EXPECT_EQ(d.bin_of(a), kNoBin);
  EXPECT_EQ(d.last_bin_of(a), bin);
  EXPECT_TRUE(d.is_evicted(a));
  EXPECT_EQ(d.jobs_evicted(), 1u);
  EXPECT_EQ(d.jobs_active(), 2u);  // limbo jobs are still active
  EXPECT_EQ(d.open_bins(), 1u);

  // The bin's live load no longer includes the evicted job.
  const BinState* state = d.open_bin_state(bin);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->num_active(), 1u);
}

TEST(Evict, LastItemClosesTheBinPermanently) {
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(2, *policy);
  const JobId a = d.arrive(0.0, vec2(0.4, 0.4), 10.0).job;
  const BinId bin = d.bin_of(a);
  const Dispatcher::Eviction ev = d.evict(3.0, a);
  EXPECT_TRUE(ev.emptied);
  EXPECT_EQ(d.open_bins(), 0u);
  EXPECT_EQ(d.open_bin_state(bin), nullptr);
  EXPECT_DOUBLE_EQ(d.records()[bin].closed, 3.0);
  EXPECT_DOUBLE_EQ(d.closed_usage(), 3.0);
}

TEST(Evict, RejectsUnknownDepartedAndDoubleEvict) {
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(2, *policy);
  const JobId a = d.arrive(0.0, vec2(0.3, 0.3), 10.0).job;
  EXPECT_THROW(d.evict(1.0, a + 7), std::invalid_argument);
  EXPECT_NO_THROW(d.evict(1.0, a));
  EXPECT_THROW(d.evict(1.0, a), std::invalid_argument);  // already in limbo
  d.replace(1.0, a);
  d.depart(2.0, a);
  EXPECT_THROW(d.evict(3.0, a), std::invalid_argument);  // departed
}

TEST(Evict, DepartOfLimboJobIsRejected) {
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(2, *policy);
  const JobId a = d.arrive(0.0, vec2(0.3, 0.3), 10.0).job;
  d.evict(1.0, a);
  EXPECT_THROW(d.depart(2.0, a), std::invalid_argument);
  d.replace(2.0, a);
  EXPECT_NO_THROW(d.depart(3.0, a));
}

TEST(Replace, IntoTargetBinUpdatesAssignmentAndRecords) {
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(2, *policy);
  const JobId a = d.arrive(0.0, vec2(0.6, 0.6), 10.0).job;
  const JobId b = d.arrive(0.5, vec2(0.6, 0.6), 10.0).job;  // new bin
  const BinId from = d.bin_of(a);
  const BinId to = d.bin_of(b);
  ASSERT_NE(from, to);

  d.evict(1.0, a);
  EXPECT_THROW(d.replace(1.0, a, to), PolicyViolation);  // does not fit
  d.depart(2.0, b);  // frees `to`... which closes it instead
  EXPECT_THROW(d.replace(2.0, a, to), PolicyViolation);  // closed bin

  const BinId landed = d.replace(2.0, a);  // fresh bin
  EXPECT_EQ(landed, d.bin_of(a));
  EXPECT_EQ(landed, d.last_bin_of(a));
  EXPECT_FALSE(d.is_evicted(a));
  EXPECT_EQ(d.jobs_evicted(), 0u);
  // The job appears in both bins' histories; assignment names the last.
  EXPECT_EQ(d.records()[from].items.size(), 1u);
  EXPECT_EQ(d.records()[landed].items.size(), 1u);
  EXPECT_EQ(d.packing().assignment()[a], landed);
}

TEST(Replace, NonEvictedJobIsRejected) {
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(2, *policy);
  const JobId a = d.arrive(0.0, vec2(0.3, 0.3), 10.0).job;
  EXPECT_THROW(d.replace(1.0, a), std::invalid_argument);
  EXPECT_THROW(d.replace(1.0, a + 3), std::invalid_argument);
}

TEST(Replace, SaveRestoreRoundTripsLimboState) {
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(2, *policy);
  const JobId a = d.arrive(0.0, vec2(0.4, 0.4), 10.0).job;
  d.arrive(0.5, vec2(0.4, 0.4), 10.0);
  d.evict(1.0, a);

  serial::Writer out;
  d.save_state(out);
  PolicyPtr policy2 = make_policy("FirstFit", kPolicySeed);
  Dispatcher restored(2, *policy2);
  serial::Reader in(out.bytes());
  restored.restore_state(in);
  EXPECT_TRUE(restored.is_evicted(a));
  EXPECT_EQ(restored.jobs_evicted(), 1u);
  EXPECT_EQ(restored.last_bin_of(a), d.last_bin_of(a));
  EXPECT_EQ(saved_state(restored), saved_state(d));
  // The restored dispatcher can finish the migration.
  restored.replace(2.0, a);
  EXPECT_FALSE(restored.is_evicted(a));
}

// --- PackingInvariantChecker ---------------------------------------------

TEST(InvariantChecker, CleanRunPassesAfterEveryEvent) {
  const Instance inst = small_instance();
  PolicyPtr policy = make_policy("BestFit", kPolicySeed);
  Dispatcher d(inst.dim(), *policy);
  Rebalancer rebalancer(d, MigrationConfig{.migrations_per_event = 1.0});
  PackingInvariantChecker checker;
  for (const Event& ev : build_event_stream(inst)) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      d.arrive(item.arrival, item.size, item.departure);
    } else {
      d.depart(ev.time, item.id);
      rebalancer.on_departure(ev.time);
    }
    const auto err = checker.check(d);
    ASSERT_FALSE(err.has_value()) << *err;
    const auto berr =
        PackingInvariantChecker::check_budget(rebalancer.budget_usage());
    ASSERT_FALSE(berr.has_value()) << *berr;
  }
  EXPECT_GT(rebalancer.stats().migrations, 0u);
}

TEST(InvariantChecker, SeesLimboJobsAsPlacedNowhere) {
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(2, *policy);
  PackingInvariantChecker checker;
  const JobId a = d.arrive(0.0, vec2(0.4, 0.4), 10.0).job;
  d.arrive(0.5, vec2(0.4, 0.4), 10.0);
  EXPECT_FALSE(checker.check(d).has_value());
  d.evict(1.0, a);
  EXPECT_FALSE(checker.check(d).has_value());  // limbo is a legal state
  d.replace(1.0, a);
  EXPECT_FALSE(checker.check(d).has_value());
}

TEST(InvariantChecker, BudgetOverdraftIsReported) {
  MigrationBudgetUsage usage;
  usage.migrations = 3;
  usage.migration_credits = 2.0;
  usage.volume = 0.5;
  usage.volume_credits = 1.0;
  const auto err = PackingInvariantChecker::check_budget(usage);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("migration"), std::string::npos);

  usage.migrations = 2;
  EXPECT_FALSE(PackingInvariantChecker::check_budget(usage).has_value());

  usage.volume = 1.5;
  EXPECT_TRUE(PackingInvariantChecker::check_budget(usage).has_value());
}

// --- Rebalancer ----------------------------------------------------------

TEST(Rebalancer, ClosesNearlyEmptyBinWithinBudget) {
  // bin0 holds {filler, short-lived}; the straggler overflows into bin1.
  // When the short-lived job departs, both bins are down to one survivor
  // and the rebalancer merges them (candidate order: fewest survivors,
  // ties by lowest id, so bin0's filler moves into bin1 and bin0 closes).
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(2, *policy);
  Rebalancer rebalancer(d, MigrationConfig{.migrations_per_event = 1.0});
  const JobId filler = d.arrive(0.0, vec2(0.5, 0.5), 100.0).job;
  const JobId brief = d.arrive(0.5, vec2(0.45, 0.45), 2.0).job;
  const JobId straggler = d.arrive(1.0, vec2(0.4, 0.4), 100.0).job;
  const BinId bin0 = d.bin_of(filler);
  const BinId bin1 = d.bin_of(straggler);
  ASSERT_EQ(d.bin_of(brief), bin0);
  ASSERT_NE(bin0, bin1);

  d.depart(2.0, brief);
  rebalancer.on_departure(2.0);
  EXPECT_EQ(rebalancer.stats().migrations, 1u);
  EXPECT_EQ(rebalancer.stats().bins_closed, 1u);
  EXPECT_EQ(d.bin_of(filler), bin1);
  EXPECT_EQ(d.bin_of(straggler), bin1);
  EXPECT_EQ(d.open_bins(), 1u);
  EXPECT_DOUBLE_EQ(d.records()[bin0].closed, 2.0);
  EXPECT_DOUBLE_EQ(rebalancer.stats().migrated_volume, 1.0);

  d.depart(3.0, filler);
  rebalancer.on_departure(3.0);
  d.depart(4.0, straggler);
  rebalancer.on_departure(4.0);
  EXPECT_EQ(d.open_bins(), 0u);
}

TEST(Rebalancer, ZeroBudgetNeverMigrates) {
  const Instance inst = small_instance();
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(inst.dim(), *policy);
  Rebalancer rebalancer(d, MigrationConfig{});  // 0 migrations/event
  feed(d, inst, [&](Time t) { rebalancer.on_departure(t); });
  EXPECT_EQ(rebalancer.stats().migrations, 0u);
  EXPECT_EQ(rebalancer.stats().bins_closed, 0u);
  // Budget 0 disables the rebalancer entirely -- including its event
  // accounting, since on_departure returns before touching any state
  // (the bit-exact budget-0 contract pinned by test_migration_parity).
  EXPECT_EQ(rebalancer.stats().events, 0u);
  EXPECT_DOUBLE_EQ(rebalancer.migration_credit_balance(), 0.0);
}

TEST(Rebalancer, VolumeBudgetBlocksTheMove) {
  // Same merge opportunity as ClosesNearlyEmptyBinWithinBudget, but the
  // volume budget (0.1 per event, burst 1.0) cannot pay for filler's
  // L1 volume of 1.0 -- the move is planned but must not execute.
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(2, *policy);
  MigrationConfig config;
  config.migrations_per_event = 1.0;
  config.volume_per_event = 0.1;
  config.burst_factor = 1.0;
  Rebalancer rebalancer(d, config);
  const JobId filler = d.arrive(0.0, vec2(0.5, 0.5), 100.0).job;
  const JobId brief = d.arrive(0.5, vec2(0.45, 0.45), 2.0).job;
  const JobId straggler = d.arrive(1.0, vec2(0.4, 0.4), 100.0).job;
  const BinId bin0 = d.bin_of(filler);
  ASSERT_EQ(d.bin_of(brief), bin0);
  ASSERT_NE(d.bin_of(straggler), bin0);
  d.depart(2.0, brief);
  rebalancer.on_departure(2.0);
  EXPECT_EQ(rebalancer.stats().migrations, 0u);
  EXPECT_EQ(d.bin_of(filler), bin0);
  EXPECT_EQ(d.open_bins(), 2u);
}

TEST(Rebalancer, CreditsAreCappedAtBurstFactor) {
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(2, *policy);
  MigrationConfig config;
  config.migrations_per_event = 1.0;
  config.burst_factor = 2.5;
  Rebalancer rebalancer(d, config);
  // Departures with nothing to migrate: credits bank up to the cap only.
  for (int i = 0; i < 8; ++i) {
    const JobId j =
        d.arrive(static_cast<Time>(i), vec2(0.9, 0.9), 1000.0).job;
    d.depart(static_cast<Time>(i) + 0.5, j);
    rebalancer.on_departure(static_cast<Time>(i) + 0.5);
  }
  EXPECT_DOUBLE_EQ(rebalancer.migration_credit_balance(), 2.5);
}

TEST(Rebalancer, AllOrNothingRefusesPartialCloses) {
  // bin0 holds two survivors but only the smaller fits elsewhere: the
  // close must not happen at all (no stranded half-migrations).
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(1, *policy);
  MigrationConfig config;
  config.migrations_per_event = MigrationConfig::kUnlimited;
  Rebalancer rebalancer(d, config);
  const JobId sB = d.arrive(0.0, RVec{0.5}, 100.0).job;   // bin0
  const JobId sA = d.arrive(0.1, RVec{0.25}, 100.0).job;  // bin0 (0.75)
  const JobId filler = d.arrive(0.2, RVec{0.7}, 100.0).job;  // bin1
  ASSERT_EQ(d.bin_of(sB), d.bin_of(sA));
  ASSERT_NE(d.bin_of(sB), d.bin_of(filler));
  const JobId dying = d.arrive(0.3, RVec{0.9}, 1.0).job;  // bin2, alone
  d.depart(1.0, dying);  // closes bin2, triggers the rebalancer
  rebalancer.on_departure(1.0);
  // bin1's filler (0.7) fits nowhere; bin0's pair: sA (0.25) would fit in
  // bin1 (0.95) but sB (0.5) would not -- all-or-nothing, nothing moves.
  EXPECT_EQ(rebalancer.stats().migrations, 0u);
  EXPECT_EQ(d.bin_of(sB), d.bin_of(sA));
  EXPECT_EQ(d.open_bins(), 2u);
  (void)filler;
}

TEST(Rebalancer, RejectsJobsAdmittedUnderForeignItemIds) {
  // Bins list Item ids; a job admitted by Item keeps its own id, which is
  // not its JobId. Planning must refuse it instead of indexing items()
  // with it (ids 7 and 9 are past the end of a three-job slab).
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher d(1, *policy);
  Rebalancer rebalancer(
      d, MigrationConfig{.migrations_per_event = MigrationConfig::kUnlimited});
  const JobId first = d.arrive(0.0, Item(7, 0.0, 10.0, RVec{0.6})).job;
  d.arrive(1.0, Item(3, 1.0, 10.0, RVec{0.6}));  // bin1
  d.arrive(2.0, Item(9, 2.0, 10.0, RVec{0.3}));  // bin0, beside item 7
  d.depart(3.0, first);
  try {
    rebalancer.on_departure(3.0);
    ADD_FAILURE() << "planned a move for a job under a foreign item id";
  } catch (const std::logic_error& e) {
    // Not the engine refusing an evict of "job 9": planning must stop.
    EXPECT_NE(std::string(e.what()).find("foreign item id"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rebalancer.stats().migrations, 0u);
  EXPECT_EQ(d.jobs_evicted(), 0u);
  EXPECT_EQ(d.open_bins(), 2u);
}

// --- Cost vs offline bounds ----------------------------------------------

TEST(MigrationCost, BudgetImprovesCostAndRespectsLowerBound) {
  const Instance inst = small_instance();
  const double lb = lower_bounds(inst).best();
  double cost_at[3];
  const double budgets[3] = {0.0, 1.0, MigrationConfig::kUnlimited};
  for (int i = 0; i < 3; ++i) {
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    Dispatcher d(inst.dim(), *policy);
    Rebalancer rebalancer(
        d, MigrationConfig{.migrations_per_event = budgets[i]});
    feed(d, inst, [&](Time t) { rebalancer.on_departure(t); });
    cost_at[i] = d.cost_so_far(d.last_event_time());
    EXPECT_GE(cost_at[i], lb) << "budget " << budgets[i]
                              << ": beat the OPT lower bound?!";
  }
  // On this pinned workload+seed the rebalancer strictly helps, and more
  // budget never hurts (not a theorem in general; pinned empirically).
  EXPECT_LT(cost_at[1], cost_at[0]);
  EXPECT_LE(cost_at[2], cost_at[1]);
}

// --- Trace round-trip ----------------------------------------------------

TEST(MigrationTrace, ReplayReconstructsTheMigratedPacking) {
  const Instance inst = small_instance();
  TempDir dir("trace");
  fs::create_directories(dir.path);
  const std::string trace_path = (dir.path / "trace.jsonl").string();
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  obs::Tracer tracer(std::make_shared<obs::FileSink>(trace_path));
  obs::Observer observer(nullptr, &tracer);
  Dispatcher d(inst.dim(), *policy, 1.0, &observer);
  Rebalancer rebalancer(d, MigrationConfig{.migrations_per_event = 2.0});
  feed(d, inst, [&](Time t) { rebalancer.on_departure(t); });
  tracer.flush();
  ASSERT_GT(rebalancer.stats().migrations, 0u);

  const Packing live = d.packing();
  const Packing replayed = obs::replay_packing_file(trace_path);
  EXPECT_EQ(packing_hash(live), packing_hash(replayed));
  EXPECT_EQ(live.assignment(), replayed.assignment());
}

// --- Durable evict/replace -----------------------------------------------

TEST(DurableMigration, JournaledRunRecoversBitExact) {
  const Instance inst = small_instance();
  TempDir dir("durable");
  std::vector<std::uint8_t> want_state;
  {
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = dir.str();
    opts.fsync = persist::FsyncPolicy::kNone;
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    Rebalancer rebalancer(durable.dispatcher(),
                          MigrationConfig{.migrations_per_event = 1.0},
                          durable.migration_exec());
    feed(durable, inst, [&](Time t) { rebalancer.on_departure(t); });
    EXPECT_GT(rebalancer.stats().migrations, 0u);
    want_state = saved_state(durable.dispatcher());
  }
  // The journal now contains kEvict/kReplace frames; recovery must replay
  // them to the identical state.
  std::size_t evicts = 0, replaces = 0;
  for (const persist::JournalRecord& rec :
       persist::scan_journal(dir.str()).records) {
    evicts += rec.kind == persist::OpKind::kEvict;
    replaces += rec.kind == persist::OpKind::kReplace;
  }
  EXPECT_GT(evicts, 0u);
  EXPECT_EQ(evicts, replaces);  // every migration is an evict+replace pair

  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  persist::DurableOptions opts;
  opts.dir = dir.str();
  opts.fsync = persist::FsyncPolicy::kNone;
  persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
  EXPECT_FALSE(recovered.recovery().torn_tail);
  EXPECT_EQ(saved_state(recovered.dispatcher()), want_state);
  EXPECT_EQ(dispatcher_state_hash(recovered.dispatcher()),
            [&] {
              // Cross-check against a plain dispatcher run (no journal).
              PolicyPtr p2 = make_policy("FirstFit", kPolicySeed);
              Dispatcher plain(inst.dim(), *p2);
              Rebalancer r2(
                  plain, MigrationConfig{.migrations_per_event = 1.0});
              feed(plain, inst, [&](Time t) { r2.on_departure(t); });
              return dispatcher_state_hash(plain);
            }());
}

TEST(DurableMigration, CheckpointMidMigrationRoundTrips) {
  const Instance inst = small_instance();
  TempDir dir("ckpt");
  std::vector<std::uint8_t> want_state;
  {
    PolicyPtr policy = make_policy("BestFit", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = dir.str();
    opts.fsync = persist::FsyncPolicy::kNone;
    opts.checkpoint_every = 37;  // off-phase with migrations
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    Rebalancer rebalancer(durable.dispatcher(),
                          MigrationConfig{.migrations_per_event = 1.0},
                          durable.migration_exec());
    feed(durable, inst, [&](Time t) { rebalancer.on_departure(t); });
    EXPECT_GT(rebalancer.stats().migrations, 0u);
    want_state = saved_state(durable.dispatcher());
  }
  PolicyPtr policy = make_policy("BestFit", kPolicySeed);
  persist::DurableOptions opts;
  opts.dir = dir.str();
  opts.fsync = persist::FsyncPolicy::kNone;
  persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
  EXPECT_TRUE(recovered.recovery().had_checkpoint);
  EXPECT_EQ(saved_state(recovered.dispatcher()), want_state);
}

}  // namespace
}  // namespace dvbp

// Pins two determinism promises no test previously covered:
//
//  1. src/harness/sweep.hpp: "every trial derives its own RNG stream, so
//     results are identical regardless of thread count". Verified
//     cell-for-cell (ratio/bins/max_open accumulators, bit-exact doubles)
//     for threads in {1, 2, 8} on the same seed.
//
//  2. Rendezvous and round-robin routing in the sharded service: the shard
//     assignment is a pure function of (job id, shard count) -- independent
//     of queue capacity, batch size, and drain timing.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cloud/router.hpp"
#include "cloud/sharded_dispatcher.hpp"
#include "core/event.hpp"
#include "core/policies/registry.hpp"
#include "gen/registry.hpp"
#include "gen/uniform.hpp"
#include "harness/sweep.hpp"

namespace dvbp {
namespace {

harness::SweepConfig sweep_config(std::size_t threads) {
  harness::SweepConfig config;
  config.trials = 16;
  config.seed = 0xFEEDFACEu;
  config.threads = threads;
  return config;
}

void expect_identical_cells(const std::vector<harness::PolicyCell>& a,
                            const std::vector<harness::PolicyCell>& b,
                            const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t p = 0; p < a.size(); ++p) {
    const harness::PolicyCell& x = a[p];
    const harness::PolicyCell& y = b[p];
    EXPECT_EQ(x.policy, y.policy) << context;
    // Accumulation happens in trial order on the merge pass, so every
    // statistic must be bit-identical, not merely close.
    EXPECT_EQ(x.ratio.count(), y.ratio.count()) << context << " " << x.policy;
    EXPECT_EQ(x.ratio.mean(), y.ratio.mean()) << context << " " << x.policy;
    EXPECT_EQ(x.ratio.min(), y.ratio.min()) << context << " " << x.policy;
    EXPECT_EQ(x.ratio.max(), y.ratio.max()) << context << " " << x.policy;
    EXPECT_EQ(x.ratio.variance(), y.ratio.variance())
        << context << " " << x.policy;
    EXPECT_EQ(x.bins.mean(), y.bins.mean()) << context << " " << x.policy;
    EXPECT_EQ(x.bins.min(), y.bins.min()) << context << " " << x.policy;
    EXPECT_EQ(x.bins.max(), y.bins.max()) << context << " " << x.policy;
    EXPECT_EQ(x.max_open.mean(), y.max_open.mean())
        << context << " " << x.policy;
    EXPECT_EQ(x.max_open.max(), y.max_open.max())
        << context << " " << x.policy;
  }
}

TEST(SweepDeterminism, CellsIdenticalAcrossThreadCounts) {
  gen::UniformParams params;
  params.n = 120;
  params.d = 2;
  params.mu = 8;
  params.span = 200;
  params.bin_size = 20;
  const gen::GeneratorFn generate =
      gen::make_generator("uniform", params, /*seed=*/7);
  // RandomFit's per-trial seed derivation is the part most likely to break
  // under reordering; DurationClassFit covers the clairvoyant path.
  const std::vector<std::string> policies{"MoveToFront", "FirstFit",
                                          "RandomFit", "DurationClassFit"};

  const auto base = run_policy_sweep(generate, policies, sweep_config(1));
  for (std::size_t threads : {2u, 8u}) {
    const auto other =
        run_policy_sweep(generate, policies, sweep_config(threads));
    expect_identical_cells(base, other,
                           "threads=" + std::to_string(threads));
  }
}

// ---------------------------------------------------------------------------

/// Feeds `inst`'s event stream and returns each job's shard assignment.
std::vector<std::size_t> shard_assignment(const Instance& inst,
                                          cloud::ShardedOptions options,
                                          bool drain_every_op) {
  cloud::ShardedDispatcher service(
      inst.dim(), [](std::size_t) { return make_policy("FirstFit"); },
      options);
  const auto events = build_event_stream(inst);
  for (const Event& ev : events) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      service.arrive(item.arrival, item.size, item.departure);
    } else {
      service.depart(ev.time, item.id);
    }
    if (drain_every_op) service.drain();
  }
  service.drain();
  std::vector<std::size_t> shards(inst.size());
  for (JobId j = 0; j < inst.size(); ++j) shards[j] = service.shard_of(j);
  return shards;
}

TEST(SweepDeterminism, RendezvousShardAssignmentIndependentOfQueueTiming) {
  gen::UniformParams params;
  params.n = 400;
  params.d = 2;
  params.mu = 10;
  params.span = 300;
  params.bin_size = 30;
  const Instance inst = gen::uniform_instance(params, 0xBEEF);

  cloud::ShardedOptions base;
  base.shards = 4;
  base.router = cloud::RouterKind::kRendezvous;

  const auto reference = shard_assignment(inst, base, false);

  // A one-op queue forces producer backpressure and caps every step at one
  // op; draining after every op serializes the service completely.
  cloud::ShardedOptions tiny = base;
  tiny.queue_capacity = 1;
  EXPECT_EQ(shard_assignment(inst, tiny, false), reference);
  EXPECT_EQ(shard_assignment(inst, base, true), reference);

  // The assignment is the argmax of the published score function -- i.e. a
  // pure function of (job id, shard count), nothing else.
  for (JobId j = 0; j < inst.size(); ++j) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < base.shards; ++s) {
      if (cloud::rendezvous_score(j, s) > cloud::rendezvous_score(j, best)) {
        best = s;
      }
    }
    EXPECT_EQ(reference[j], best) << "job " << j;
  }
}

TEST(SweepDeterminism, RoundRobinShardAssignmentIndependentOfQueueTiming) {
  gen::UniformParams params;
  params.n = 400;
  params.d = 2;
  params.mu = 10;
  params.span = 300;
  params.bin_size = 30;
  const Instance inst = gen::uniform_instance(params, 0xBEEF);

  // A one-op queue makes nearly every arrive() find its shard full and wait
  // for room; the id it finally takes must still pick the shard.
  cloud::ShardedOptions tiny;
  tiny.shards = 2;
  tiny.router = cloud::RouterKind::kRoundRobin;
  tiny.queue_capacity = 1;
  const auto assignment = shard_assignment(inst, tiny, false);
  for (JobId j = 0; j < inst.size(); ++j) {
    EXPECT_EQ(assignment[j], j % 2) << "job " << j;
  }

  // Thread-free: after every second job both queues are full, so one more
  // try_arrive is refused; stepping both shards then makes room. The
  // refusals shift no later job's shard.
  cloud::ShardedCore core(
      2, [](std::size_t) { return make_policy("FirstFit"); }, tiny);
  const RVec size{0.1, 0.1};
  for (JobId j = 0; j < 40; ++j) {
    const std::optional<JobId> job = core.try_arrive(j, size);
    ASSERT_TRUE(job.has_value()) << "job " << j;
    EXPECT_EQ(*job, j);
    EXPECT_EQ(core.shard_of(j), j % 2) << "job " << j;
    if (j % 2 == 1) {
      EXPECT_FALSE(core.try_arrive(j, size).has_value());
      core.step(0);
      core.step(1);
    }
  }
  core.drain();
  EXPECT_EQ(core.jobs_admitted(), 40u);
}

TEST(SweepDeterminism, RendezvousSpreadsLoadAcrossShards) {
  // Not a balance guarantee, but a regression guard against a degenerate
  // score function routing everything to one shard.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kJobs = 4000;
  std::vector<std::size_t> counts(kShards, 0);
  for (JobId j = 0; j < kJobs; ++j) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < kShards; ++s) {
      if (cloud::rendezvous_score(j, s) > cloud::rendezvous_score(j, best)) {
        best = s;
      }
    }
    ++counts[best];
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], kJobs / kShards / 2) << "shard " << s;
    EXPECT_LT(counts[s], kJobs * 2 / kShards) << "shard " << s;
  }
}

}  // namespace
}  // namespace dvbp

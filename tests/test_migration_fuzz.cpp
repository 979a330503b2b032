// Randomized differential fuzz for the migration layer (ISSUE 7).
//
// Three attack surfaces:
//   1. the raw evict()/replace() primitives, driven by a seeded random op
//      stream with the PackingInvariantChecker asserted after EVERY op;
//   2. the Rebalancer planner at random budgets, with both the packing
//      invariants and the budget-overdraft check on every event;
//   3. the sharded service under real producer threads, whose jobs keep
//      their shard for life (this test is in the ThreadSanitizer CI job's
//      net).
//
// A failing op stream is useless at 500 ops, so the harness ships a ddmin
// shrinker (tests/ddmin.hpp, shared with the tenancy fuzzer): it reduces
// a failing stream to a 1-minimal sub-stream (drop any op and the failure
// disappears) before printing it. The shrinker is itself under test
// against predicates with known minimal cores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cloud/sharded_dispatcher.hpp"
#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/invariants.hpp"
#include "core/policies/policy.hpp"
#include "core/policies/registry.hpp"
#include "core/rebalancer.hpp"
#include "core/simulator.hpp"  // PolicyViolation
#include "gen/uniform.hpp"

#include "ddmin.hpp"

namespace dvbp {
namespace {

using testing::ddmin;

constexpr std::uint64_t kPolicySeed = 0xD1CEu;

// Policies whose bin choice has no class structure: replace() may put any
// item into any open bin without violating the policy's own invariants.
const char* const kRobustPolicies[] = {"FirstFit", "BestFit", "MoveToFront",
                                       "NextFit"};

// ---------------------------------------------------------------------------
// Op model. Ops name jobs directly (job ids are assigned in arrival
// order), so any *subsequence* of a stream is still executable: an op
// whose precondition no longer holds (depart of a job whose arrival was
// dropped, say) is skipped, which is what makes ddmin work on these.
struct FuzzOp {
  enum class Kind : std::uint8_t { kArrive, kDepart, kEvict, kReplace };
  Kind kind = Kind::kArrive;
  Time time = 0.0;
  JobId job = kNoItem;       // all but kArrive
  RVec size;                 // kArrive only
  std::uint32_t target = 0;  // kReplace: picks an open bin (see apply)
  bool fresh_bin = false;    // kReplace: force a fresh bin
};

std::string describe(const FuzzOp& op) {
  std::ostringstream out;
  switch (op.kind) {
    case FuzzOp::Kind::kArrive:
      out << "arrive t=" << op.time;
      break;
    case FuzzOp::Kind::kDepart:
      out << "depart t=" << op.time << " job=" << op.job;
      break;
    case FuzzOp::Kind::kEvict:
      out << "evict t=" << op.time << " job=" << op.job;
      break;
    case FuzzOp::Kind::kReplace:
      out << "replace t=" << op.time << " job=" << op.job
          << (op.fresh_bin ? " fresh" : " target") << "=" << op.target;
      break;
  }
  return out.str();
}

std::string describe(const std::vector<FuzzOp>& ops) {
  std::string out;
  for (const FuzzOp& op : ops) out += "  " + describe(op) + "\n";
  return out;
}

/// Generates a stream where every op is valid when the full stream runs:
/// the generator tracks live/limbo state and only emits feasible ops.
std::vector<FuzzOp> generate_stream(std::uint64_t seed, std::size_t n_ops,
                                    std::size_t dim) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.05, 0.55);
  std::uniform_real_distribution<double> dt(0.0, 1.5);
  std::vector<FuzzOp> ops;
  ops.reserve(n_ops);
  Time now = 0.0;
  std::vector<JobId> live;   // placed, not departed, not evicted
  std::vector<JobId> limbo;  // evicted, awaiting replace
  JobId next_job = 0;
  const auto take = [&rng](std::vector<JobId>& pool) {
    const std::size_t i = rng() % pool.size();
    const JobId job = pool[i];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
    return job;
  };
  for (std::size_t i = 0; i < n_ops; ++i) {
    now += dt(rng);
    FuzzOp op;
    op.time = now;
    // Weighted pick among currently-feasible kinds.
    const std::uint32_t roll = static_cast<std::uint32_t>(rng() % 100);
    if (!limbo.empty() && (roll < 25 || limbo.size() >= 4)) {
      op.kind = FuzzOp::Kind::kReplace;
      op.job = take(limbo);
      op.fresh_bin = (rng() % 2) == 0;
      op.target = static_cast<std::uint32_t>(rng());
      live.push_back(op.job);
    } else if (!live.empty() && roll < 45) {
      op.kind = FuzzOp::Kind::kEvict;
      op.job = take(live);
      limbo.push_back(op.job);
    } else if (!live.empty() && (roll < 70 || next_job > 60)) {
      op.kind = FuzzOp::Kind::kDepart;
      op.job = take(live);
    } else {
      op.kind = FuzzOp::Kind::kArrive;
      op.job = next_job;
      op.size = RVec(dim);
      for (std::size_t k = 0; k < dim; ++k) op.size[k] = unit(rng);
      live.push_back(next_job++);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// The replace target `pick` names: an open bin, counted in opening order
/// with the holes of closed bins skipped (a hole has no id to target), or
/// kNoBin when no bin is open.
BinId live_bin(const Dispatcher& dispatcher, std::uint32_t pick) {
  std::vector<BinId> open;
  for (const BinView& view : dispatcher.open_views()) {
    if (view.id != kNoBin) open.push_back(view.id);
  }
  return open.empty() ? kNoBin : open[pick % open.size()];
}

/// Applies `ops` to a fresh dispatcher, running the invariant checker
/// after every op. Infeasible ops (preconditions broken by ddmin dropping
/// earlier ops) are skipped; a replace whose open-bin target cannot hold
/// the job falls back to a fresh bin. Returns the first invariant
/// violation, or nullopt.
std::optional<std::string> apply_stream(const std::vector<FuzzOp>& ops,
                                        const std::string& policy_name,
                                        std::size_t dim) {
  const PolicyPtr policy = make_policy(policy_name, kPolicySeed);
  Dispatcher dispatcher(dim, *policy);
  PackingRecorder recorder;
  dispatcher.set_recorder(&recorder);
  PackingInvariantChecker checker;
  std::vector<JobId> id_map;  // op-stream job -> dispatcher job
  Time now = 0.0;
  for (const FuzzOp& op : ops) {
    now = std::max(now, op.time);
    switch (op.kind) {
      case FuzzOp::Kind::kArrive:
        id_map.push_back(dispatcher.arrive(now, op.size).job);
        break;
      case FuzzOp::Kind::kDepart: {
        if (op.job >= id_map.size()) continue;
        const JobId job = id_map[op.job];
        if (dispatcher.bin_of(job) == kNoBin) continue;
        dispatcher.depart(now, job);
        break;
      }
      case FuzzOp::Kind::kEvict: {
        if (op.job >= id_map.size()) continue;
        const JobId job = id_map[op.job];
        if (dispatcher.bin_of(job) == kNoBin) continue;
        dispatcher.evict(now, job);
        break;
      }
      case FuzzOp::Kind::kReplace: {
        if (op.job >= id_map.size()) continue;
        const JobId job = id_map[op.job];
        if (!dispatcher.is_evicted(job)) continue;
        const BinId target =
            op.fresh_bin ? kNoBin : live_bin(dispatcher, op.target);
        try {
          dispatcher.replace(now, job, target);
        } catch (const PolicyViolation&) {
          dispatcher.replace(now, job, kNoBin);
        }
        break;
      }
    }
    if (auto err = checker.check(dispatcher, &recorder)) {
      return "after [" + describe(op) + "]: " + *err;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------

// Surface 1: the evict/replace primitives under random op soup.
TEST(MigrationFuzz, RandomEvictReplaceKeepsInvariantsEveryStep) {
  for (const char* policy : kRobustPolicies) {
    for (std::uint64_t seed : {11u, 29u, 47u}) {
      for (std::size_t dim : {1u, 3u}) {
        SCOPED_TRACE(std::string(policy) + " seed=" +
                     std::to_string(seed) + " d=" + std::to_string(dim));
        auto ops = generate_stream(seed, 500, dim);
        auto failure = apply_stream(ops, policy, dim);
        if (failure.has_value()) {
          // Shrink before reporting so the repro is actionable.
          const auto fails = [&](const std::vector<FuzzOp>& sub) {
            return apply_stream(sub, policy, dim).has_value();
          };
          const auto minimal = ddmin(ops, fails);
          FAIL() << *failure << "\nminimal repro ("
                 << minimal.size() << " ops):\n" << describe(minimal);
        }
      }
    }
  }
}

// Replays that skip infeasible ops must leave the final state consistent
// too: finish every stream by replacing limbo jobs and departing the
// rest, then re-check.
TEST(MigrationFuzz, StreamsWindDownToAnEmptyConsistentState) {
  const std::size_t dim = 2;
  const auto ops = generate_stream(/*seed=*/5, /*n_ops=*/400, dim);
  const PolicyPtr policy = make_policy("BestFit", kPolicySeed);
  Dispatcher dispatcher(dim, *policy);
  PackingRecorder recorder;
  dispatcher.set_recorder(&recorder);
  PackingInvariantChecker checker;
  std::vector<JobId> id_map;
  Time now = 0.0;
  for (const FuzzOp& op : ops) {
    now = std::max(now, op.time);
    switch (op.kind) {
      case FuzzOp::Kind::kArrive:
        id_map.push_back(dispatcher.arrive(now, op.size).job);
        break;
      case FuzzOp::Kind::kDepart:
        dispatcher.depart(now, id_map.at(op.job));
        break;
      case FuzzOp::Kind::kEvict:
        dispatcher.evict(now, id_map.at(op.job));
        break;
      case FuzzOp::Kind::kReplace:
        try {
          const BinId target =
              op.fresh_bin ? kNoBin : live_bin(dispatcher, op.target);
          dispatcher.replace(now, id_map.at(op.job), target);
        } catch (const PolicyViolation&) {
          dispatcher.replace(now, id_map.at(op.job), kNoBin);
        }
        break;
    }
    ASSERT_FALSE(checker.check(dispatcher, &recorder).has_value());
  }
  now += 1.0;
  for (JobId job = 0; job < dispatcher.jobs_admitted(); ++job) {
    if (dispatcher.is_evicted(job)) dispatcher.replace(now, job);
    ASSERT_FALSE(checker.check(dispatcher, &recorder).has_value());
  }
  for (JobId job = 0; job < dispatcher.jobs_admitted(); ++job) {
    if (dispatcher.bin_of(job) != kNoBin) dispatcher.depart(now, job);
    ASSERT_FALSE(checker.check(dispatcher, &recorder).has_value());
  }
  EXPECT_EQ(dispatcher.jobs_active(), 0u);
  EXPECT_EQ(dispatcher.jobs_evicted(), 0u);
  EXPECT_EQ(dispatcher.open_bins(), 0u);
}

// Surface 2: the Rebalancer planner at random budgets. Both the packing
// invariants and the no-overdraft budget check run on every event.
TEST(MigrationFuzz, RebalancerNeverOverdrawsAtRandomBudgets) {
  std::mt19937_64 rng(0xB4D6E7u);
  for (int trial = 0; trial < 6; ++trial) {
    gen::UniformParams params;
    params.d = 1 + (trial % 3);
    params.n = 200;
    params.mu = 10;
    params.span = 80;
    params.bin_size = 8;
    const Instance inst = gen::uniform_instance(params, rng());
    MigrationConfig config;
    config.migrations_per_event = static_cast<double>(rng() % 3);
    config.volume_per_event =
        (rng() % 2) ? MigrationConfig::kUnlimited
                    : 0.25 * static_cast<double>(1 + rng() % 4);
    config.burst_factor = 1.0 + static_cast<double>(rng() % 8);
    config.max_survivors = 1 + rng() % 5;
    SCOPED_TRACE("trial=" + std::to_string(trial) + " d=" +
                 std::to_string(params.d) + " mpe=" +
                 std::to_string(config.migrations_per_event));

    const char* policy_name = kRobustPolicies[trial % 4];
    const PolicyPtr policy = make_policy(policy_name, kPolicySeed);
    Dispatcher dispatcher(inst.dim(), *policy);
    PackingRecorder recorder;
    dispatcher.set_recorder(&recorder);
    Rebalancer rebalancer(dispatcher, config);
    PackingInvariantChecker checker;
    for (const Event& ev : build_event_stream(inst)) {
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        dispatcher.arrive(item.arrival, item.size, item.departure);
      } else {
        dispatcher.depart(ev.time, item.id);
        rebalancer.on_departure(ev.time);
      }
      const auto err = checker.check(dispatcher, &recorder);
      ASSERT_FALSE(err.has_value()) << *err;
      const auto overdraft =
          PackingInvariantChecker::check_budget(rebalancer.budget_usage());
      ASSERT_FALSE(overdraft.has_value()) << *overdraft;
    }
    EXPECT_EQ(dispatcher.jobs_evicted(), 0u)
        << "rebalancer left a job in limbo";
  }
}

// ---------------------------------------------------------------------------
// The shrinker itself: predicates with known minimal cores.

std::vector<FuzzOp> indexed_ops(std::size_t n) {
  std::vector<FuzzOp> ops(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops[i].time = static_cast<Time>(i);  // identity tag for predicates
  }
  return ops;
}

TEST(MigrationFuzz, DdminFindsAKnownTwoOpCore) {
  // Fails iff ops tagged 17 and 53 both survive, in order.
  const auto fails = [](const std::vector<FuzzOp>& ops) {
    bool saw17 = false;
    for (const FuzzOp& op : ops) {
      if (op.time == 17.0) saw17 = true;
      if (op.time == 53.0 && saw17) return true;
    }
    return false;
  };
  const auto minimal = ddmin(indexed_ops(100), fails);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0].time, 17.0);
  EXPECT_EQ(minimal[1].time, 53.0);
}

TEST(MigrationFuzz, DdminIsOneMinimalOnScatteredCores) {
  // Fails iff at least 3 ops tagged == 0 mod 7 survive.
  const auto fails = [](const std::vector<FuzzOp>& ops) {
    std::size_t hits = 0;
    for (const FuzzOp& op : ops) {
      if (static_cast<std::uint64_t>(op.time) % 7 == 0) ++hits;
    }
    return hits >= 3;
  };
  auto minimal = ddmin(indexed_ops(64), fails);
  ASSERT_TRUE(fails(minimal));
  ASSERT_EQ(minimal.size(), 3u);
  // 1-minimality: dropping any single op kills the failure.
  for (std::size_t i = 0; i < minimal.size(); ++i) {
    auto probe = minimal;
    probe.erase(probe.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(fails(probe));
  }
}

TEST(MigrationFuzz, DdminShrinksARealOpStreamPredicate) {
  // Behavioral (not bug) predicate on real replay: "some prefix holds
  // >= 3 jobs in limbo at once". The shrunk stream must still be
  // executable and 1-minimal under the same predicate.
  const std::size_t dim = 2;
  const std::string policy = "FirstFit";
  const auto deep_limbo = [&](const std::vector<FuzzOp>& sub) {
    const PolicyPtr p = make_policy(policy, kPolicySeed);
    Dispatcher d(dim, *p);
    std::vector<JobId> id_map;
    Time now = 0.0;
    for (const FuzzOp& op : sub) {
      now = std::max(now, op.time);
      switch (op.kind) {
        case FuzzOp::Kind::kArrive:
          id_map.push_back(d.arrive(now, op.size).job);
          break;
        case FuzzOp::Kind::kDepart:
          if (op.job < id_map.size() &&
              d.bin_of(id_map[op.job]) != kNoBin) {
            d.depart(now, id_map[op.job]);
          }
          break;
        case FuzzOp::Kind::kEvict:
          if (op.job < id_map.size() &&
              d.bin_of(id_map[op.job]) != kNoBin) {
            d.evict(now, id_map[op.job]);
          }
          break;
        case FuzzOp::Kind::kReplace:
          if (op.job < id_map.size() && d.is_evicted(id_map[op.job])) {
            d.replace(now, id_map[op.job]);
          }
          break;
      }
      if (d.jobs_evicted() >= 3) return true;
    }
    return false;
  };
  std::vector<FuzzOp> ops;
  std::uint64_t seed = 1;
  do {
    ops = generate_stream(seed++, 400, dim);
  } while (!deep_limbo(ops));
  const auto minimal = ddmin(ops, deep_limbo);
  ASSERT_TRUE(deep_limbo(minimal)) << describe(minimal);
  // The true core is 3 arrivals + 3 evictions; ddmin guarantees only
  // 1-minimality, so allow a slightly larger local minimum.
  EXPECT_GE(minimal.size(), 6u) << describe(minimal);
  EXPECT_LE(minimal.size(), 12u) << describe(minimal);
  for (std::size_t i = 0; i < minimal.size(); ++i) {
    auto probe = minimal;
    probe.erase(probe.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(deep_limbo(probe)) << "dropping op " << i
                                    << " should kill the predicate";
  }
}

// ---------------------------------------------------------------------------
// Surface 3: the sharded service with live producer threads (TSan food).
// Phases of [threaded feed -> join -> drain -> check].
TEST(MigrationFuzz, ShardedServiceUnderThreadedFeed) {
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kPhases = 3;
  constexpr std::size_t kJobsPerThreadPhase = 40;
  cloud::ShardedOptions options;
  options.shards = 3;
  cloud::ShardedDispatcher service(
      /*dim=*/2,
      [](std::size_t) { return make_policy("FirstFit", kPolicySeed); },
      options);

  std::vector<PackingInvariantChecker> checkers(options.shards);
  std::vector<std::vector<JobId>> mine(kThreads);  // per-thread live jobs
  Time phase_base = 0.0;
  for (std::size_t phase = 0; phase < kPhases; ++phase) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937_64 rng(0x5EED00u + phase * 31 + t);
        std::uniform_real_distribution<double> unit(0.05, 0.45);
        for (std::size_t i = 0; i < kJobsPerThreadPhase; ++i) {
          const Time now =
              phase_base + static_cast<Time>(i) * 0.25;
          const JobId job = service.arrive(
              now, RVec({unit(rng), unit(rng)}), now + 40.0);
          mine[t].push_back(job);
          // Retire a random earlier job of our own about half the time.
          if (!mine[t].empty() && (rng() % 2) == 0) {
            const std::size_t pick = rng() % mine[t].size();
            service.depart(now, mine[t][pick]);
            mine[t].erase(mine[t].begin() +
                          static_cast<std::ptrdiff_t>(pick));
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    service.drain();

    phase_base += static_cast<Time>(kJobsPerThreadPhase) * 0.25 + 1.0;
    for (const std::vector<JobId>& jobs : mine) {
      for (const JobId job : jobs) {
        ASSERT_EQ(service.shard_of(job), job % options.shards);
      }
    }
    for (std::size_t s = 0; s < options.shards; ++s) {
      const auto err = checkers[s].check(service.shard_dispatcher(s),
                                         &service.shard_recorder(s));
      ASSERT_FALSE(err.has_value()) << "phase " << phase << " shard " << s
                                    << ": " << *err;
    }
  }

  // Wind down: every surviving job departs through the global API, from
  // this thread, on the shard its arrival took.
  Time now = phase_base + 1.0;
  for (auto& jobs : mine) {
    for (const JobId job : jobs) service.depart(now, job);
  }
  service.drain();
  EXPECT_EQ(service.jobs_active(), 0u);
  for (std::size_t s = 0; s < options.shards; ++s) {
    const auto err = checkers[s].check(service.shard_dispatcher(s),
                                       &service.shard_recorder(s));
    ASSERT_FALSE(err.has_value()) << *err;
  }
}

}  // namespace
}  // namespace dvbp

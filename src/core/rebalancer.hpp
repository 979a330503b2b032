// Rebalancer: bounded-migration repacking on departure events.
//
// The paper's online model never moves an item once placed, while the
// hindsight OPT may repack freely -- so the competitive-ratio plots
// conflate "online information" with "no migration". In the spirit of
// Berndt-Jansen-Klein (Fully Dynamic Bin Packing Revisited, PAPERS.md)
// this layer grants the allocator a small, amortized migration budget
// per departure event and uses it for the single most profitable move
// in the DVBP objective: closing nearly-empty bins early by migrating
// their survivors into other open bins. Every unit of time a bin stays
// open costs one unit of objective (eq. 1), so emptying a bin at the
// departure event realizes its entire remaining usage as savings.
//
// Budget semantics (docs/MIGRATION.md):
//   - Every departure event accrues `migrations_per_event` migration
//     credits and `volume_per_event` L1-volume credits, each capped at
//     `burst_factor` times its per-event accrual (amortization: quiet
//     periods bank credit for an occasional multi-item close, but the
//     bank is bounded).
//   - Moving one item consumes 1 migration credit and ||s(r)||_1 volume
//     credits. A bin is only closed all-or-nothing: if its survivors
//     cannot all be relocated within the remaining credits (and into
//     the currently open bins), nothing moves.
//   - migrations_per_event == 0 disables the rebalancer entirely; the
//     engine's event paths are then bit-identical to the no-migration
//     engine (pinned by tests/test_migration_parity.cpp).
//
// The plan step is deterministic: candidate bins are tried from fewest
// survivors (ties: lowest bin id), survivors relocate first-fit in bin
// opening order. Determinism is what lets the persist journal replay
// migrations bit-exactly after a crash.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/invariants.hpp"
#include "core/types.hpp"

namespace dvbp {

struct MigrationConfig {
  static constexpr double kUnlimited =
      std::numeric_limits<double>::infinity();

  /// Migration credits accrued per departure event; 0 disables.
  double migrations_per_event = 0.0;
  /// L1-volume credits accrued per departure event.
  double volume_per_event = kUnlimited;
  /// Accrued credits are capped at burst_factor * per-event accrual.
  double burst_factor = 4.0;
  /// Only bins with at most this many survivors are close candidates.
  std::size_t max_survivors = 4;
};

struct MigrationStats {
  std::uint64_t events = 0;            ///< departure events observed
  std::uint64_t migrations = 0;        ///< items moved
  double migrated_volume = 0.0;        ///< sum of moved items' L1 sizes
  std::uint64_t bins_closed = 0;       ///< bins closed by migration
  double migration_credits = 0.0;      ///< total credits accrued
  double volume_credits = 0.0;         ///< total volume credits accrued
};

/// Mutation indirection: the same planner drives a raw Dispatcher or a
/// journaled persist::DurableDispatcher (which must record each step).
struct MigrationExec {
  std::function<void(Time, JobId)> evict;
  std::function<BinId(Time, JobId, BinId)> replace;
};

class Rebalancer {
 public:
  /// Plans against `dispatcher` (borrowed; read-only) and mutates through
  /// `exec`. The exec callbacks must act on the same underlying engine.
  Rebalancer(const Dispatcher& dispatcher, MigrationConfig config,
             MigrationExec exec);

  /// Convenience: plan against and mutate `dispatcher` directly.
  Rebalancer(Dispatcher& dispatcher, MigrationConfig config);

  /// Call after every Dispatcher::depart (same `now`). Accrues credits,
  /// then greedily closes candidate bins while the budget lasts.
  /// Returns the number of items migrated by this call. Jobs must be
  /// admitted under their JobId (Dispatcher::arrive by size, not by
  /// Item): throws std::logic_error, before any eviction, when a candidate
  /// bin holds a job admitted under a foreign item id.
  std::size_t on_departure(Time now);

  const MigrationConfig& config() const noexcept { return config_; }
  const MigrationStats& stats() const noexcept { return stats_; }

  /// Remaining banked credits (post-cap), for introspection/tests.
  double migration_credit_balance() const noexcept { return credits_; }
  double volume_credit_balance() const noexcept { return volume_credits_; }

  /// Snapshot for PackingInvariantChecker::check_budget.
  MigrationBudgetUsage budget_usage() const noexcept;

 private:
  struct Plan {
    BinId source = kNoBin;
    std::vector<JobId> jobs;      // survivors, in bin packing order
    std::vector<BinId> targets;   // parallel to jobs
    double volume = 0.0;
  };

  bool plan_close(Plan& plan) const;
  void execute(Time now, const Plan& plan);

  const Dispatcher& dispatcher_;
  MigrationConfig config_;
  MigrationExec exec_;
  MigrationStats stats_;
  double credits_ = 0.0;         // banked migration credits
  double volume_credits_ = 0.0;  // banked volume credits
};

}  // namespace dvbp

// Dispatcher: the placement engine (Algorithm 1 of the paper).
//
// Wraps a Policy behind an incremental interface: call arrive() when a job
// shows up (placement is returned immediately and is irrevocable, per the
// paper's model), depart() when it finishes. Departure times need not be
// known at arrival; clairvoyant policies may be fed an expected departure.
// The engine owns all feasibility enforcement -- a policy returning a bin
// that is not open or cannot hold the item raises PolicyViolation, and
// leaves the dispatcher as it was before the call.
//
// It is the only engine: simulate() feeds an Instance's event stream
// through one, and so do trace replay, the sharded service, crash recovery
// and the wire server, so all competitive-ratio guarantees and the golden
// packing hashes hold on every path.
#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/bin_state.hpp"
#include "core/open_bin_table.hpp"
#include "core/packing.hpp"
#include "core/policies/policy.hpp"
#include "core/pool.hpp"
#include "core/types.hpp"

namespace dvbp::obs {
class Observer;  // obs/observer.hpp
}  // namespace dvbp::obs

namespace dvbp {

/// Identifier the caller uses to refer to a live job: its admission rank.
using JobId = ItemId;

/// Per-tenant usage accounting hook (implemented by
/// tenancy::UsageAccountant; core stays tenancy-agnostic the same way it
/// stays obs-agnostic). The dispatcher invokes the hook with the open-bin
/// count *before* the event mutates state: bin counts are piecewise
/// constant between events, so accruing [last event, now) at the old count
/// is exact, not an approximation. A null hook costs one branch per event.
class TenantUsageHook {
 public:
  virtual ~TenantUsageHook() = default;
  /// A job of `tenant` was admitted at `now` with demand `size`.
  virtual void on_arrive(TenantId tenant, Time now, const RVec& size,
                         std::size_t open_bins) = 0;
  /// A job of `tenant` departed at `now`, releasing demand `size`.
  virtual void on_depart(TenantId tenant, Time now, const RVec& size,
                         std::size_t open_bins) = 0;
  /// Clock advance with no demand change (evict/replace: the job stays
  /// active, but the open-bin count may step).
  virtual void on_advance(Time now, std::size_t open_bins) = 0;
};

class Dispatcher {
 public:
  /// `policy` is borrowed (not owned) and reset(); it must outlive the
  /// dispatcher. `bin_capacity` >= 1 enables resource augmentation.
  /// `observer` (borrowed, nullable) receives one callback per allocator
  /// event -- the live-service telemetry feed (see obs/observer.hpp).
  Dispatcher(std::size_t dim, Policy& policy, double bin_capacity = 1.0,
             obs::Observer* observer = nullptr);

  struct Admission {
    JobId job = kNoItem;
    BinId bin = kNoBin;
    bool opened_new_bin = false;
  };

  /// Admits a job of the given size at time `now` (monotonically
  /// nondecreasing across all calls). `expected_departure` is only shown
  /// to clairvoyant policies; pass the default when unknown. `tenant`
  /// labels the job for usage accounting (src/tenancy/) and is invisible
  /// to every placement policy -- packing decisions are tenant-blind.
  /// The job's Item id is its JobId. Throws std::invalid_argument on bad
  /// sizes or time regressions and PolicyViolation on an illegal policy
  /// decision; either way the dispatcher is left unchanged.
  Admission arrive(Time now, RVec size,
                   Time expected_departure =
                       std::numeric_limits<Time>::infinity(),
                   TenantId tenant = kNoTenant);

  /// Admits a copy of `item` at `now`, with item.departure as the expected
  /// departure, under the item's own id: the policy, the observer and the
  /// bin records see item.id, while the returned JobId (the admission
  /// rank) still indexes depart(), bin_of() and items(). This is how
  /// simulate() reports an Instance's ItemIds when its rows are not in
  /// arrival order. Ids must be unique among active jobs (bins match
  /// departures by id). Throws as the other overload.
  Admission arrive(Time now, const Item& item);

  /// Attaches (or detaches, with nullptr) the per-tenant usage accounting
  /// hook. Borrowed; must outlive the dispatcher or be detached first.
  void set_usage_hook(TenantUsageHook* hook) noexcept {
    usage_hook_ = hook;
  }

  /// Marks `job` finished at `now`. Throws std::invalid_argument for
  /// unknown/already-departed jobs or time regressions.
  void depart(Time now, JobId job);

  // --- Migration primitives (src/core/rebalancer.hpp) ------------------

  struct Eviction {
    BinId bin = kNoBin;   ///< bin the job was evicted from
    bool emptied = false; ///< true if the eviction closed that bin
  };

  /// Removes `job` from its bin without departing it: the job stays
  /// active ("in limbo") and must be re-placed with replace() before it
  /// can depart. If the bin empties it closes permanently, exactly as on
  /// a departure. Unlike depart(), the item's departure field is NOT
  /// patched (the job is still running). Throws std::invalid_argument
  /// for unknown, departed, or already-evicted jobs.
  Eviction evict(Time now, JobId job);

  /// Re-places a previously evicted `job` at `now`: into open bin
  /// `target`, or into a freshly opened bin when `target` == kNoBin.
  /// Throws std::invalid_argument if the job is not in limbo and
  /// PolicyViolation if `target` is not open or cannot hold the job.
  /// Returns the (possibly new) bin id.
  BinId replace(Time now, JobId job, BinId target = kNoBin);

  /// True while `job` has been evict()ed but not yet replace()d.
  bool is_evicted(JobId job) const {
    return job < jobs_.size() && jobs_[job].evicted;
  }

  /// Number of jobs currently in limbo (evicted, not yet re-placed).
  std::size_t jobs_evicted() const noexcept { return evicted_jobs_; }

  /// Last bin `job` was packed into (never reset by depart/evict) --
  /// the authoritative final placement for Packing assignment under
  /// migration, where records() may list a job in several bins.
  BinId last_bin_of(JobId job) const;

  /// Materializes the current placement: assignment[j] = last bin j was
  /// packed into, plus the full bin records. Under migration a job
  /// appears in the item list of every bin it ever occupied; the
  /// assignment names the final one. Jobs in limbo keep their previous
  /// bin in the assignment -- call at quiescence (no evicted jobs) for a
  /// well-defined packing.
  Packing packing() const;

  // --- Introspection ---------------------------------------------------

  std::size_t dim() const noexcept { return dim_; }
  std::size_t open_bins() const noexcept { return views_.size() - holes_; }
  std::size_t bins_opened() const noexcept { return records_.size(); }
  std::size_t jobs_admitted() const noexcept { return items_.size(); }
  std::size_t jobs_active() const noexcept { return active_jobs_; }
  Time last_event_time() const noexcept { return now_; }

  /// Bin currently hosting `job` (kNoBin after departure).
  BinId bin_of(JobId job) const;

  /// Read-only views of the open-bin table's slots in opening order. A
  /// slot whose view has id == kNoBin is a hole left by a bin that closed:
  /// it holds no items and its load is +inf in every dimension, so it
  /// never fits. Holes are squeezed out once they pass 1/8 of the slots,
  /// so skip them rather than count on their positions; open_bins() counts
  /// the live slots. The span and the load pointers inside it are
  /// invalidated by the next mutating call; callers that share the
  /// dispatcher across threads must hold their own lock across the call
  /// and any use of the result (the sharded service's router reads these
  /// under the shard mutex).
  std::span<const BinView> open_views() const noexcept { return views_; }

  /// Sum over open bins and dimensions of the current load -- the
  /// "total usage" signal the least-usage router balances on. O(open bins).
  double total_active_load() const noexcept;

  /// Every job ever admitted, by JobId (indexable, iterable; backed by a
  /// chunked slab, so Item references stay valid across later arrivals).
  /// A job's `departure` field holds the expected departure passed to
  /// arrive() until depart() patches in the actual one; `arrival` is the
  /// (possibly clamped) admission time.
  const StableVector<Item>& items() const noexcept { return items_; }

  /// Total usage time accrued up to `at`: every bin contributes
  /// max(0, min(at, close time) - open time), where open bins have no
  /// close time yet. This is the objective of eq. (1) metered live, and
  /// it is exact for historical timestamps too: a closed bin's
  /// contribution is clamped to `at` instead of counted in full. O(1)
  /// bookkeeping keeps queries at `at` >= last_event_time() to O(open
  /// bins); earlier timestamps scan every record.
  double cost_so_far(Time at) const;

  /// Usage records of every bin ever opened (open bins report their
  /// opening time with `closed` == opened; consult open_bins()).
  const std::vector<BinRecord>& records() const& noexcept { return records_; }
  /// Moves the records out of a dispatcher that is done with them.
  std::vector<BinRecord> records() && noexcept { return std::move(records_); }

  /// Live state of bin `id` if it is currently open, nullptr otherwise.
  /// Invalidated by the next mutating call (invariant-checker use).
  const BinState* open_bin_state(BinId id) const noexcept {
    if (id >= slot_of_.size() || slot_of_[id] == kNoSlot) return nullptr;
    return &bins_[id];
  }

  /// Running sum of closed bins' usage time (monotone; checker use).
  double closed_usage() const noexcept { return closed_usage_; }

  // --- Checkpointing (src/persist/checkpoint.hpp) ----------------------

  /// Serializes the complete allocation state -- items, assignments, bin
  /// records, the open bins in opening order (holes are not written), and
  /// every open bin's exact load bits -- such that restore_state() on a
  /// fresh Dispatcher (same dim/capacity, same policy configuration;
  /// policy state is checkpointed separately through Policy::save_state)
  /// reproduces a dispatcher whose future decisions are bit-identical to
  /// this one's. Closed bins are restored as empty
  /// shells (their BinState is never consulted again); their usage history
  /// lives in records(). O(items + bins). Throws std::logic_error if a
  /// job was admitted under an Item id other than its JobId.
  void save_state(serial::Writer& out) const;

  /// Restores state written by save_state(). Must be called on a freshly
  /// constructed dispatcher (nothing admitted yet) with the same dim and
  /// bin_capacity; throws std::logic_error otherwise and
  /// serial::SerialError on malformed input, including open bins that are
  /// not listed in strictly ascending (opening) order. The restored table
  /// has no holes. Does not invoke any Policy callback -- pair with
  /// Policy::restore_state.
  void restore_state(serial::Reader& in);

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();
  /// compact() runs once holes pass 1/kCompactFraction of the slots.
  static constexpr std::size_t kCompactFraction = 8;

  /// Placement state of one job, by JobId.
  struct JobState {
    BinId bin = kNoBin;       ///< hosting bin; kNoBin once departed/evicted
    BinId last_bin = kNoBin;  ///< last bin packed into (never reset)
    bool evicted = false;     ///< in limbo between evict() and replace()
  };

  void check_time(Time now) const;
  void check_arrival(Time now, const RVec& size, Time expected_departure) const;
  void advance_clock(Time now) noexcept;
  Admission admit(Time now, const Item& item);
  BinId place(Time now, const Item& item, JobState& job, BinId target);
  bool unplace(Time now, const Item& item, BinId bin_id);
  void close_slot(std::uint32_t slot);
  void compact();

  std::size_t dim_;
  Policy& policy_;
  double capacity_;
  obs::Observer* obs_;
  TenantUsageHook* usage_hook_ = nullptr;
  Time now_ = 0.0;
  bool started_ = false;

  UsagePool usage_pool_;  // usage-interval nodes for all bins' active lists
  StableVector<Item> items_;  // by JobId; departure patched on depart
  std::vector<JobState> jobs_;  // by JobId
  std::size_t evicted_jobs_ = 0;
  StableVector<BinState> bins_;      // every bin ever opened, by id
  OpenBinTable table_;  // SoA loads of the open bins, parallel to views_
  std::vector<std::uint32_t> slot_of_;  // BinId -> slot in views_/table_
  std::vector<BinRecord> records_;
  std::vector<BinView> views_;  // one per slot, opening order; holes too
  std::size_t holes_ = 0;       // slots of views_ whose id is kNoBin
  RVec hole_load_;              // all +inf: the load every hole view shows
  std::size_t active_jobs_ = 0;
  double closed_usage_ = 0.0;  // running sum of closed bins' usage time
};

}  // namespace dvbp

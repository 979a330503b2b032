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
//
// It keeps only live state -- a slot table of live jobs, the open bins,
// the counters -- so its memory does not grow with the events it has
// seen. History leaves through an attached PackingRecorder
// (core/packing_recorder.hpp).
//
// An open bin is one slot k, in opening order: views_[k] (what policies
// read besides the load), bins_[k] (its item list) and entry k of every
// OpenBinTable lane (its load, held nowhere else). A closed bin leaves a
// hole at its slot; compact() squeezes the holes out, moving all three
// together. bin_slot_ finds a bin's slot by id, and a live job names its
// bin by id, so nothing else needs renumbering when slots move.
#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/bin_state.hpp"
#include "core/open_bin_table.hpp"
#include "core/packing_recorder.hpp"
#include "core/policies/policy.hpp"
#include "core/pool.hpp"
#include "core/types.hpp"

namespace dvbp::obs {
class Observer;  // obs/observer.hpp
}  // namespace dvbp::obs

namespace dvbp {

/// A job's one name on every path: its Item::id. simulate() and the
/// harness admit a job under its ItemId, each shard of the sharded service
/// under the service-global JobId, and arrive(now, size, ...) names it
/// jobs_admitted(). Unique among live jobs.
using JobId = ItemId;

/// The Dispatcher's one listener: it hears every arrival, departure and
/// clock step. tenancy::UsageAccountant meters tenants with it, and each
/// shard of the sharded service keeps its job table with it; core stays
/// tenancy-agnostic the same way it stays obs-agnostic. The dispatcher
/// invokes the hook with the open-bin count *before* the event mutates
/// state: bin counts are piecewise constant between events, so accruing
/// [last event, now) at the old count is exact, not an approximation. A
/// null hook costs one branch per event. Its state rides in every
/// checkpoint of a persist::DurableDispatcher, after the recorder's.
class TenantUsageHook {
 public:
  virtual ~TenantUsageHook() = default;
  /// Job `job` was admitted at `now` (job.arrival == now).
  virtual void on_arrive(const Item& job, Time now,
                         std::size_t open_bins) = 0;
  /// Job `job` departed at `now` (job.departure == now).
  virtual void on_depart(const Item& job, Time now,
                         std::size_t open_bins) = 0;
  /// Clock advance with no demand change (evict/replace: the job stays
  /// active, but the open-bin count may step).
  virtual void on_advance(Time now, std::size_t open_bins) = 0;
  /// Checkpoint state: restore_state() reads what save_state() wrote into
  /// a hook that has heard no event yet.
  virtual void save_state(serial::Writer& out) const = 0;
  virtual void restore_state(serial::Reader& in) = 0;
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
  /// nondecreasing across all calls), named jobs_admitted().
  /// `expected_departure` is only shown to clairvoyant policies; pass the
  /// default when unknown. `tenant` labels the job for usage accounting
  /// (src/tenancy/) and is invisible to every placement policy -- packing
  /// decisions are tenant-blind. Throws std::invalid_argument on bad
  /// sizes, time regressions or a name that is already live, and
  /// PolicyViolation on an illegal policy decision; either way the
  /// dispatcher is left unchanged.
  Admission arrive(Time now, RVec size,
                   Time expected_departure =
                       std::numeric_limits<Time>::infinity(),
                   TenantId tenant = kNoTenant);

  /// Admits a copy of `item` at `now` under item.id, with item.departure
  /// as the expected departure. Throws as the other overload, including
  /// when item.id is already live (or is kNoItem).
  Admission arrive(Time now, const Item& item);

  /// Attaches (or detaches, with nullptr) the per-tenant usage accounting
  /// hook. Borrowed; must outlive the dispatcher or be detached first.
  void set_usage_hook(TenantUsageHook* hook) noexcept {
    usage_hook_ = hook;
  }

  /// Attaches (or detaches, with nullptr) the recorder of every bin open,
  /// placement and close. Borrowed; attach it before the first event.
  void set_recorder(PackingRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  /// Marks live job `job` finished at `now`. Throws std::invalid_argument
  /// for jobs that are not live (unknown or departed) or evicted, and for
  /// time regressions.
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
  bool is_evicted(JobId job) const noexcept {
    const std::uint32_t slot = job_slot_.find(job);
    return slot != IdMap::kAbsent && jobs_[slot].bin == kNoBin;
  }

  /// Number of jobs currently in limbo (evicted, not yet re-placed).
  std::size_t jobs_evicted() const noexcept { return evicted_jobs_; }

  // --- Introspection ---------------------------------------------------

  std::size_t dim() const noexcept { return dim_; }
  std::size_t open_bins() const noexcept { return views_.size() - holes_; }
  std::size_t bins_opened() const noexcept { return bins_opened_; }
  std::size_t jobs_admitted() const noexcept { return jobs_admitted_; }
  std::size_t jobs_active() const noexcept { return job_slot_.size(); }
  Time last_event_time() const noexcept { return now_; }

  /// Bin currently hosting `job`; kNoBin when the job is evicted or not
  /// live (departed, or never admitted).
  BinId bin_of(JobId job) const noexcept {
    const std::uint32_t slot = job_slot_.find(job);
    return slot == IdMap::kAbsent ? kNoBin : jobs_[slot].bin;
  }

  /// Live job `job` as admitted (departure: the expected one), or nullptr.
  /// Invalidated by the next mutating call.
  const Item* job(JobId job) const noexcept {
    const std::uint32_t slot = job_slot_.find(job);
    return slot == IdMap::kAbsent ? nullptr : &jobs_[slot].item;
  }

  /// One live job, as for_each_job() reports it.
  struct LiveJob {
    const Item& item;    ///< as admitted; departure is the expected one
    BinId bin;           ///< hosting bin; kNoBin while evicted
    std::uint64_t rank;  ///< admission order among the live jobs
  };

  /// Calls fn(const LiveJob&) once per live job in no defined order, so
  /// nothing may depend on it: `rank` gives admission order, and survives
  /// a checkpoint.
  template <typename Fn>
  void for_each_job(Fn&& fn) const {
    for (const JobSlot& slot : jobs_) {
      if (slot.item.id == kNoItem) continue;  // a free slot
      fn(LiveJob{slot.item, slot.bin, slot.rank});
    }
  }

  /// Read-only views of the open bins' slots in opening order; slot k's
  /// load is open_table().load(k). A slot whose view has id == kNoBin is
  /// a hole left by a bin that closed: it holds no items and its load is
  /// +inf in every dimension, so it never fits. Holes are squeezed out
  /// once they pass 1/8 of the slots, so skip them rather than count on
  /// their positions; open_bins() counts the live slots. The span is
  /// invalidated by the next mutating call; callers that share the
  /// dispatcher across threads must hold their own lock across the call
  /// and any use of the result.
  std::span<const BinView> open_views() const noexcept { return views_; }

  /// The loads of open_views()'s slots, slot for slot. Same lifetime.
  const OpenBinTable& open_table() const noexcept { return table_; }

  /// Total usage time accrued up to `at`: every bin contributes
  /// max(0, min(at, close time) - open time), where open bins have no
  /// close time yet. This is the objective of eq. (1) metered live. At
  /// `at` >= last_event_time() it is O(open bins) from a running sum of
  /// closed usage. An earlier `at` needs the closed bins' records: the
  /// attached recorder answers it (PackingRecorder::cost_at), and without
  /// one it throws std::invalid_argument.
  double cost_so_far(Time at) const;

  /// Item list of bin `id` if it is currently open, nullptr otherwise.
  /// Invalidated by the next mutating call (invariant-checker use).
  const BinState* open_bin_state(BinId id) const noexcept {
    const std::uint32_t slot = bin_slot_.find(id);
    return slot == IdMap::kAbsent ? nullptr : &bins_[slot];
  }

  /// Running sum of closed bins' usage time (monotone; checker use).
  double closed_usage() const noexcept { return closed_usage_; }

  // --- Checkpointing (src/persist/checkpoint.hpp) ----------------------

  /// Serializes the live state (stream v4): the clock, the counters,
  /// closed_usage()'s bits, the live jobs in admission order (id, arrival,
  /// expected departure, tenant, size, bin or evicted), and the open bins
  /// in opening order with their exact load bits -- such that
  /// restore_state() on a fresh Dispatcher (same dim/capacity, same policy
  /// configuration; policy state is checkpointed separately through
  /// Policy::save_state) decides bit-identically to this one.
  void save_state(serial::Writer& out) const;

  /// Restores state written by save_state(). Must be called on a freshly
  /// constructed dispatcher (nothing admitted yet) with the same dim and
  /// bin_capacity; throws std::logic_error otherwise and
  /// serial::SerialError on malformed input -- a stream of another
  /// version (named in the message), open bins not listed in strictly
  /// ascending (opening) order, a job in a bin that is not open. The
  /// restored table has no holes. Does not invoke any Policy callback --
  /// pair with Policy::restore_state.
  void restore_state(serial::Reader& in);

 private:
  static constexpr std::uint32_t kNoSlot = IdMap::kAbsent;
  /// compact() runs once holes pass 1/kCompactFraction of the slots.
  static constexpr std::size_t kCompactFraction = 8;

  /// One slot of the live-job table. A free slot has item.id == kNoItem.
  struct JobSlot {
    Item item;               ///< as admitted; departure patched on depart
    BinId bin = kNoBin;      ///< hosting bin; kNoBin while evicted
    std::uint64_t rank = 0;  ///< admission order
  };

  void check_time(Time now) const;
  void check_arrival(Time now, const RVec& size, Time expected_departure) const;
  void advance_clock(Time now) noexcept;
  std::uint32_t claim_job_slot(JobId job);
  void release_job_slot(std::uint32_t slot) noexcept;
  std::uint32_t placed_slot(JobId job, const char* caller) const;
  Admission admit(Time now, std::uint32_t job_slot);
  BinId place(Time now, std::uint32_t job_slot, std::uint32_t slot);
  Eviction take_out(Time now, std::uint32_t job_slot, bool departing);
  void close_slot(std::uint32_t slot);
  void compact();

  std::size_t dim_;
  Policy& policy_;
  double capacity_;
  obs::Observer* obs_;
  TenantUsageHook* usage_hook_ = nullptr;
  PackingRecorder* recorder_ = nullptr;
  Time now_ = 0.0;
  bool started_ = false;
  std::size_t jobs_admitted_ = 0;
  std::size_t bins_opened_ = 0;  // also the next bin's id

  UsagePool usage_pool_;  // usage-interval nodes for all bins' active lists
  std::vector<JobSlot> jobs_;           // live jobs, plus free slots
  std::vector<std::uint32_t> free_jobs_;
  IdMap job_slot_;                      // JobId -> slot in jobs_
  std::size_t evicted_jobs_ = 0;
  // The open bins' slots, opening order, holes too (file comment).
  std::vector<BinView> views_;
  std::vector<BinState> bins_;
  OpenBinTable table_;
  IdMap bin_slot_;             // BinId -> slot
  std::size_t holes_ = 0;      // slots whose view id is kNoBin
  double closed_usage_ = 0.0;  // running sum of closed bins' usage time
};

}  // namespace dvbp

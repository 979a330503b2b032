// ShardedCore and ShardedDispatcher: a placement service over K Dispatcher
// shards, as a thread-free core and the threaded service on top of it.
//
// The paper's allocator is inherently sequential: every placement decision
// depends on the full bin state. To serve heavy arrival traffic the service
// layer partitions the stream instead -- K independent Dispatcher shards,
// each fed through a bounded FIFO queue. One rule routes: job j is admitted
// on shard j mod K and stays there for its whole life (its departure is
// steered to the same shard), so each shard observes a self-consistent
// substream and its competitive behavior is exactly that of a serial
// Dispatcher on that substream. The rule is a pure function of the job id,
// so the assignment does not depend on thread or queue timing.
//
// ShardedCore starts no thread: it owns the job table, the shards with
// their engines and queues, one submission path, and step(shard), which
// takes up to 256 queued ops in FIFO order, applies them in one group
// commit, fires their completions and publishes progress in queue order.
// A test steps it directly, and so does the network server's one event
// loop (src/net/server.hpp). ShardedDispatcher is the core plus one worker
// per shard that waits (a short spin, then a condition variable producers
// signal on the empty -> non-empty transition) and steps; batch runs use
// it. drain() steps shards itself, and so does a submission waiting for
// room in the core (in the threaded service it waits for the worker), so
// completions fire on whichever thread steps. A server handed a
// ShardedDispatcher stops its workers (stop_workers) and steps it as it
// steps the core. While a net::PlacementServer runs over a service, its
// loop is the only thread that steps it: another thread may call drain(),
// step(), or a blocking arrive()/depart() only after the server's wait()
// or stop(). Read-only calls (cost_so_far, jobs_active, ...) are safe at
// any time.
//
// Equivalence contract (pinned by tests/test_sharded_parity.cpp):
//   * K = 1: the service reproduces the serial Dispatcher -- and hence
//     simulate() -- bin for bin on any monotone event feed.
//   * K > 1: shard s's packing equals a serial Dispatcher fed shard s's
//     substream in admission order, and the global cost is the sum of the
//     per-shard costs at every timestamp.
//
// Memory layout: each shard's Dispatcher owns its own slab allocators and
// SoA open-bin table (core/open_bin_table.hpp, core/pool.hpp), so the
// SIMD feasibility scan and the pooled usage-node recycling are per-shard
// and share no cache lines across workers.
//
// Timestamps: each shard applies its queue in FIFO order and clamps event
// times to be monotone within the shard (an op whose timestamp lags the
// shard clock is applied at the shard clock, the way an ingestion front-end
// stamps requests). With a single producer the feed is already monotone and
// no clamping ever fires.
//
// A job's one name is the global JobId arrive() returns: each shard admits
// it under that id. Each shard runs one persist::DurableDispatcher -- its
// Dispatcher (live state only), its PackingRecorder (its packing), its
// journal under <journal_dir>/shard-<s> or none, and its recovery -- with
// one apply path whether it journals or not. An op that does not both
// apply and, with a journal, commit completes as failed (see
// CompletionSink). The shard's listener (the engine's usage hook) keeps
// each job's admitted Item in the job table (job_item()) and meters the
// shard's tenants; a shard checkpoint carries its recorder, its departed
// jobs' Items and its tenant ledger.
//
// Consistency: cost_so_far() / open_bins() / jobs_active() aggregate the
// shards under their locks and are safe to call at any time, but reflect
// only *applied* ops -- call drain() first for an exact figure. snapshot()
// and shard_packing() additionally require quiescence (drain() and no
// concurrent producers) and materialize real Packing objects.
//
// Observability: with a MetricRegistry attached, each shard registers
//   dvbp.shard.<i>.queue_depth            gauge, ops waiting in the queue
//   dvbp.shard.<i>.batch_size             histogram, ops per step
//   dvbp.shard.<i>.placement_latency_ns   histogram, enqueue -> applied
//   dvbp.shard.<i>.ops_applied_total      counter, survives shutdown
// and the shard's Dispatcher feeds the shared dvbp.alloc.* instruments
// (aggregated across shards).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/packing.hpp"
#include "core/policies/policy.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "persist/durable.hpp"
#include "tenancy/accountant.hpp"
#include "tenancy/arbiter.hpp"

namespace dvbp::cloud {

/// How an arrival picks its shard. There is one rule: job id mod shards.
/// The type and ShardedOptions::router stay only because perfbench
/// (perfbench/src/wire.cpp) sets the field; the service never reads it.
enum class RouterKind : std::uint8_t { kRoundRobin = 0 };

struct ShardedOptions {
  std::size_t shards = 1;
  RouterKind router = RouterKind::kRoundRobin;  ///< see RouterKind
  double bin_capacity = 1.0;
  /// Per-shard queue bound: a submission into a full queue waits for room
  /// (arrive, depart) or is refused (try_arrive, try_depart).
  std::size_t queue_capacity = 4096;
  /// Borrowed, nullable; receives the per-shard queue/batch/latency
  /// instruments and the shared dvbp.alloc.* allocator metrics.
  obs::MetricRegistry* metrics = nullptr;

  // --- Durability (src/persist/, docs/DURABILITY.md) -------------------

  /// Root journal directory; empty disables journaling. Each shard's
  /// engine owns `<journal_dir>/shard-<s>` exclusively -- journal appends
  /// never take a cross-shard lock. Construction recovers every shard from
  /// its directory (checkpoint restore + journal replay) before the
  /// workers start, rebuilding the global job table. It throws
  /// persist::PersistError when a `shard-<s>` with s >= shards holds a
  /// checkpoint or a non-empty journal segment: those jobs would be lost.
  std::string journal_dir;
  persist::FsyncPolicy fsync = persist::FsyncPolicy::kInterval;
  std::size_t fsync_interval_ops = 256;
  /// Per-shard: checkpoint after the drained batch that brings the ops
  /// journaled since the last checkpoint to this many; 0 disables.
  std::size_t checkpoint_every = 0;

  // --- Multi-tenancy (src/tenancy/, docs/TENANCY.md) --------------------

  /// Number of tenants; 0 disables tenancy entirely (no accountants --
  /// the pre-tenancy behavior, bit for bit). When > 0 every shard's
  /// listener meters a tenancy::UsageAccountant, arrivals carry their
  /// tenant label through the queue and the journal, and settle_tenants()
  /// merges the shard ledgers into an Arbiter settlement at quiescence.
  std::uint32_t tenants = 0;
};

/// Where a journal directory holds ops (a checkpoint or a non-empty
/// segment): at its root, as the serial persist::DurableDispatcher writes
/// them, and under `shard-<s>/`, as a ShardedDispatcher does.
struct JournalLayout {
  bool serial = false;
  std::size_t shards = 0;  ///< 1 + the highest s whose shard-<s>/ holds ops
};
JournalLayout read_journal_layout(const std::string& dir);

/// Completion hook for asynchronous submissions (the network front-end,
/// src/net/server.cpp). op_applied() fires exactly once per accepted
/// try_arrive/try_depart, after the step that applied the op has committed
/// its batch and *before* the op counts as applied for drain() -- so when
/// drain() returns every accepted op's completion has already fired. It
/// runs on whichever thread steps the shard, with no shard lock held; it
/// must not step, drain, or block on anything that waits for shard
/// progress.
class CompletionSink {
 public:
  virtual ~CompletionSink() = default;
  /// `cookie` is the value passed at submission; `job` is the service
  /// global job id of the op, or kNoItem when the op failed: it did not
  /// both apply and, with a journal, commit (a dead journal, whose file
  /// may still hold the op's frame, so a reopen may replay it).
  virtual void op_applied(std::uint64_t cookie, JobId job) noexcept = 0;
};

class ShardedCore {
 public:
  /// `factory(shard)` builds the policy instance shard `shard` owns; it is
  /// called once per shard at construction (policies are stateful and not
  /// thread-safe, so they are never shared). Throws std::invalid_argument
  /// on bad options.
  using PolicyFactory = std::function<PolicyPtr(std::size_t shard)>;
  ShardedCore(std::size_t dim, const PolicyFactory& factory,
              ShardedOptions options = {});

  /// Applies every op still queued. Errors are swallowed here (read them
  /// via drain() before destruction if you care).
  ~ShardedCore();

  ShardedCore(const ShardedCore&) = delete;
  ShardedCore& operator=(const ShardedCore&) = delete;

  /// Admits a job: validates the size, routes it to a shard, and enqueues
  /// the placement (applied by a later step, in FIFO order). Returns the
  /// service-global job id. While the target shard's queue is full it
  /// waits for room (wait_for_room). Thread-safe.
  JobId arrive(Time now, RVec size,
               Time expected_departure =
                   std::numeric_limits<Time>::infinity(),
               TenantId tenant = kNoTenant);

  /// Marks `job` finished: enqueues the departure on the shard that owns
  /// it, waiting for room like arrive(). Throws std::invalid_argument for
  /// unknown or already-departed jobs (checked under the owner's queue
  /// lock, so racing double-departs fail in exactly one caller).
  /// Thread-safe.
  void depart(Time now, JobId job);

  // --- Asynchronous admission (the network front-end) ------------------
  //
  // For callers that must never wait on a full shard queue (an epoll event
  // loop): they return "no" instead, and the caller converts that into
  // backpressure (a typed RETRY_LATER response). A refused op takes no
  // job id and claims no job. When a sink is supplied, the stepping
  // thread calls sink->op_applied(cookie, job) once the op has been
  // applied -- the completion hookup that lets a server answer a request
  // only when the placement actually happened.

  /// Like arrive(), but returns std::nullopt instead of waiting when the
  /// routed shard's queue is full. Validation errors still throw.
  std::optional<JobId> try_arrive(
      Time now, RVec size,
      Time expected_departure = std::numeric_limits<Time>::infinity(),
      std::shared_ptr<CompletionSink> sink = nullptr,
      std::uint64_t cookie = 0, TenantId tenant = kNoTenant);

  /// Like depart(), but returns false instead of waiting when the owning
  /// shard's queue is full (the job stays live and the caller may retry).
  /// Unknown/double departs still throw.
  bool try_depart(Time now, JobId job,
                  std::shared_ptr<CompletionSink> sink = nullptr,
                  std::uint64_t cookie = 0);

  /// Takes up to 256 queued ops off shard `shard` in FIFO order, applies
  /// them in one group commit, fires their completions, and publishes
  /// progress. Returns the number of ops taken (0: the queue was empty).
  std::size_t step(std::size_t shard);

  /// Steps every shard until every op enqueued before the call has been
  /// applied (a worker may apply some of them meanwhile), then rethrows
  /// the first error a step met, if any.
  void drain();

  /// Stops the threads that step this service, if any: from then on only
  /// callers step it (a server's loop, drain(), a submission waiting for
  /// room). Idempotent; the thread-free core has none to stop.
  virtual void stop_workers() noexcept {}

  /// Forces an fsync on every shard journal (no-op when durability is
  /// off). The graceful-drain path calls this after drain() so that an
  /// acknowledged-then-drained state is on disk even under
  /// FsyncPolicy::kInterval. Thread-safe. A journal that fails here dies
  /// exactly as one that fails a step; this rethrows the first error met.
  void sync_journals();

  // --- Global view -----------------------------------------------------

  std::size_t dim() const noexcept { return dim_; }
  std::size_t shards() const noexcept { return shards_.size(); }

  /// Ops admitted (arrivals + departures enqueued so far). Summed over the
  /// shards; exact once the producers that matter have returned.
  std::uint64_t ops_enqueued() const noexcept;
  /// Ops the steps have applied (or failed) and completed so far.
  std::uint64_t ops_applied() const noexcept;

  std::size_t jobs_admitted() const;
  /// Shard `job` was admitted on, for its whole life: job mod shards(),
  /// unless the job was recovered from a journal written with fewer
  /// shards, when it stays on the shard that recovered it.
  std::size_t shard_of(JobId job) const;

  /// Sum of the per-shard eq. (1) costs at `at` -- exact for historical
  /// timestamps, reflects applied ops only. Thread-safe.
  double cost_so_far(Time at) const;
  std::size_t open_bins() const;
  std::size_t bins_opened() const;
  std::size_t jobs_active() const;

  // --- Per-shard view --------------------------------------------------

  double shard_cost_so_far(std::size_t shard, Time at) const;
  std::size_t shard_bins_opened(std::size_t shard) const;
  std::size_t shard_jobs_admitted(std::size_t shard) const;

  // --- Quiescent snapshots (drain() first; throw std::logic_error while
  // --- ops are in flight) ----------------------------------------------

  /// Shard `shard`'s packing: shard-local bin ids, global job ids --
  /// directly comparable against a serial Dispatcher fed the shard's
  /// substream under the same ids.
  Packing shard_packing(std::size_t shard) const;

  /// The merged global packing: bin ids renumbered shard-major (shard 0's
  /// bins first, in opening order), one assignment slot per job id
  /// jobs_admitted() handed out, each naming the job's bin on its shard
  /// (kNoBin for an id that was never applied).
  Packing snapshot() const;

  /// The job's admission record on its shard (applied, possibly clamped,
  /// arrival time; actual departure once departed).
  /// Quiescent only. Throws std::invalid_argument for ids never applied.
  const Item& job_item(JobId job) const;

  /// How shard `shard` recovered at construction (all-defaults when
  /// journaling is off or the directory was empty: a cold start).
  const persist::RecoveryReport& shard_recovery(std::size_t shard) const;

  /// Read-only views of shard `shard`'s live dispatcher and of the
  /// recorder attached to it, for invariant checking. Quiescent only.
  const Dispatcher& shard_dispatcher(std::size_t shard) const;
  const PackingRecorder& shard_recorder(std::size_t shard) const;

  // --- Multi-tenancy (ShardedOptions::tenants > 0 only) -----------------

  /// Quiescent credit settlement: closes each shard accountant's epoch at
  /// `now`, merges the per-tenant usage integrals across shards, settles
  /// `arbiter` with the merged vector, and -- when durability is on --
  /// journals the settled credit state as one kTenantCredits frame on
  /// shard 0 (recovered via shard_recovery(0).tenant_credits). Returns the
  /// merged per-tenant usage of the epoch (the fairness tracker's input).
  /// Requires quiescence, like snapshot(). Throws std::logic_error when
  /// tenancy is off, std::invalid_argument on a tenant-count mismatch, and
  /// what shard 0's engine throws when its journal fails.
  std::vector<double> settle_tenants(Time now, tenancy::Arbiter& arbiter);

  /// Shard `shard`'s usage ledger; null when tenancy is off. Quiescent
  /// reads only (every step mutates it).
  const tenancy::UsageAccountant* shard_accountant(std::size_t shard) const;

 protected:
  /// How a submission waits while shard `shard`'s queue is full: the core
  /// steps the shard itself; the threaded service waits for its worker.
  virtual void wait_for_room(std::size_t shard) { step(shard); }

 private:
  friend class ShardedDispatcher;  // its workers wait on the queues

  struct Op {
    enum class Kind : std::uint8_t { kArrive, kDepart } kind = Kind::kArrive;
    Time time = 0.0;
    JobId job = kNoItem;  // global id; kNoItem once the op failed
    RVec size{};          // arrivals only
    Time expected_departure = 0.0;
    TenantId tenant = kNoTenant;  // arrivals only
    std::chrono::steady_clock::time_point enqueued{};  // metrics only
    std::shared_ptr<CompletionSink> sink{};  // null for synchronous callers
    std::uint64_t cookie = 0;
  };

  class Listener;  // a shard's usage hook (sharded_dispatcher.cpp)

  struct Shard {
    // Placement state: guarded by `mu`. Whoever steps the shard holds it
    // from taking a batch off the queue to the batch's commit.
    mutable std::mutex mu;
    PolicyPtr policy;
    std::unique_ptr<obs::Observer> observer;  // null when obs is off
    std::unique_ptr<Listener> listener;
    std::unique_ptr<persist::DurableDispatcher> engine;
    std::uint64_t ops_taken = 0;  ///< ops taken off the queue so far

    // Queue: guarded by `qmu`.
    std::mutex qmu;
    std::condition_variable not_empty;  ///< a worker sleeps here
    std::condition_variable not_full;   ///< a waiting producer sleeps here
    std::deque<Op> queue;
    /// queue.size() mirror, maintained inside qmu critical sections; lets
    /// a worker spin-poll for new work without taking the lock.
    std::atomic<std::size_t> qsize{0};
    /// Ops pushed onto this queue, counted with the push. Kept per-shard
    /// (and summed on read) so producers on different shards share no
    /// counter line.
    std::atomic<std::uint64_t> ops_enqueued{0};
    /// Ops taken off this queue whose completions have fired, published
    /// in queue order.
    std::atomic<std::uint64_t> ops_applied{0};

    // Cached instruments (null when metrics are off).
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* placement_latency = nullptr;
    obs::Counter* ops_applied_total = nullptr;
  };

  /// Per-job admission record. Lives in chunked, pointer-stable storage so
  /// the arrive/depart hot paths never share a lock: ids come from an
  /// atomic counter, `shard`/`departed` are per-record atomics, and `item`
  /// is written by the owning shard's listener (from its stepper); other
  /// readers must be quiescent, ordered by the ops_applied release/acquire
  /// pair in drain().
  struct JobRec {
    std::atomic<std::uint32_t> shard{0};
    std::atomic<bool> departed{false};  // set when the depart is queued
    Item item;  // as admitted on `shard`; id == kNoItem until applied
  };

  /// Job records are allocated in chunks of 2^kJobChunkBits; the chunk
  /// directory is a fixed array of atomic pointers, so readers index it
  /// without locks. Caps the service at kMaxChunks << kJobChunkBits
  /// (~67M) jobs -- far beyond any single run, and checked in arrive().
  static constexpr std::size_t kJobChunkBits = 13;
  static constexpr std::size_t kJobChunkSize = 1u << kJobChunkBits;
  static constexpr std::size_t kMaxChunks = 1u << 13;

  JobRec& job_rec(JobId job) const {
    return job_chunks_[job >> kJobChunkBits].load(
        std::memory_order_acquire)[job & (kJobChunkSize - 1)];
  }
  /// job_rec(), allocating the record's chunk first when it has none.
  /// Throws std::length_error past the job table's capacity.
  JobRec& job_slot(std::uint64_t job);

  /// The one submission path: validate, route (an arrival, to job mod K)
  /// or find the owner (a departure), and enqueue -- waiting for room (wait_for_room)
  /// when `wait`, else refusing. Returns the op's job id, or kNoItem
  /// when refused.
  JobId submit(Op op, bool wait);
  /// The clamp-and-degrade rule every op goes through (see the .cpp).
  static void apply(persist::DurableDispatcher& engine, Op& op);
  void require_quiescent() const;
  JobRec& checked_job_rec(JobId job, const char* caller) const;
  /// Shard `shard`; std::invalid_argument naming `caller` when out of range.
  Shard& shard_at(std::size_t shard, const char* caller) const;

  void rebuild_job_table();
  void record_error();
  void rethrow_error() const;

  std::size_t dim_;
  ShardedOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> next_job_{0};
  /// The chunk directory. It frees its chunks itself, so a constructor
  /// that throws mid-recovery leaks none.
  struct JobChunks : std::array<std::atomic<JobRec*>, kMaxChunks> {
    ~JobChunks() {
      for (auto& chunk : *this) delete[] chunk.load(std::memory_order_acquire);
    }
  };
  JobChunks job_chunks_{};
  std::mutex chunk_mu_;  // serializes chunk allocation only

  mutable std::mutex error_mu_;
  std::exception_ptr error_;  // guarded by error_mu_
};

/// The threaded service: a ShardedCore plus one worker thread per shard
/// that waits for work and steps its shard.
class ShardedDispatcher : public ShardedCore {
 public:
  /// Builds the core (recovering every shard), then starts the workers.
  ShardedDispatcher(std::size_t dim, const PolicyFactory& factory,
                    ShardedOptions options = {});
  /// Stops and joins the workers; the core then applies what is left.
  ~ShardedDispatcher();

  /// Stops and joins the workers. The service then steps like the core.
  void stop_workers() noexcept override;

 protected:
  void wait_for_room(std::size_t shard) override;

 private:
  void work(std::size_t shard);

  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
};

}  // namespace dvbp::cloud

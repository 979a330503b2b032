#include "cloud/sharded_dispatcher.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "core/serial.hpp"
#include "persist/checkpoint.hpp"

namespace dvbp::cloud {

namespace {

/// True when `dir` holds a checkpoint or a non-empty journal segment. A
/// directory with only empty segments holds no op (a recovery at a larger
/// shard count leaves such a shard directory behind).
bool holds_ops(const std::string& dir) {
  if (!persist::checkpoint_files(dir).empty()) return true;
  for (const std::string& segment : persist::journal_segments(dir)) {
    std::error_code ec;
    if (std::filesystem::file_size(segment, ec) > 0 && !ec) return true;
  }
  return false;
}

/// Most ops one step takes off a queue (one lock round-trip and one
/// journal commit per batch).
constexpr std::size_t kMaxBatch = 256;

/// Powers-of-two bounds for the ops-per-step histogram.
std::vector<double> batch_size_bounds() {
  std::vector<double> bounds;
  for (std::size_t b = 1; b <= kMaxBatch; b *= 2) {
    bounds.push_back(static_cast<double>(b));
  }
  return bounds;
}

}  // namespace

JournalLayout read_journal_layout(const std::string& dir) {
  namespace fs = std::filesystem;
  constexpr std::string_view kPrefix = "shard-";
  JournalLayout layout;
  layout.serial = holds_ops(dir);
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (!name.starts_with(kPrefix)) continue;
    const char* last = name.data() + name.size();
    std::size_t shard = 0;
    const auto [ptr, err] =
        std::from_chars(name.data() + kPrefix.size(), last, shard);
    if (err == std::errc() && ptr == last && holds_ops(it->path().string())) {
      layout.shards = std::max(layout.shards, shard + 1);
    }
  }
  return layout;
}

/// A shard's usage hook, the one listener of its engine's Dispatcher. It
/// writes each job's admission record into the job table on every apply
/// and every replay alike, meters the shard's tenants, and carries both
/// across a checkpoint: the Items of the departed jobs this shard owns
/// (the live ones ride in the dispatcher state), then the tenant ledger.
class ShardedCore::Listener final : public TenantUsageHook {
 public:
  Listener(ShardedCore& service, std::uint32_t shard)
      : service_(service), shard_(shard) {
    if (service.options_.tenants > 0) {
      accountant_.emplace(service.options_.tenants);
    }
  }
  Listener(const Listener&) = delete;  // its engine holds its address
  Listener& operator=(const Listener&) = delete;

  tenancy::UsageAccountant* accountant() {
    return accountant_ ? &*accountant_ : nullptr;
  }

  void on_arrive(const Item& job, Time now, std::size_t open_bins) override {
    if (accountant_) accountant_->on_arrive(job, now, open_bins);
    claim(job);
  }
  void on_depart(const Item& job, Time now, std::size_t open_bins) override {
    if (accountant_) accountant_->on_depart(job, now, open_bins);
    claim(job);
  }
  void on_advance(Time now, std::size_t open_bins) override {
    if (accountant_) accountant_->on_advance(now, open_bins);
  }

  void save_state(serial::Writer& out) const override {
    const persist::DurableDispatcher& engine =
        *service_.shards_[shard_]->engine;
    const std::vector<BinId>& placed = engine.recorder().assignment();
    std::vector<const Item*> departed;
    for (JobId job = 0; job < placed.size(); ++job) {
      if (placed[job] != kNoBin && engine.dispatcher().job(job) == nullptr) {
        departed.push_back(&service_.job_rec(job).item);
      }
    }
    out.u64(departed.size());
    for (const Item* item : departed) item->save_state(out);
    if (accountant_) accountant_->save_state(out);
  }

  void restore_state(serial::Reader& in) override {
    const std::uint64_t n = in.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      claim(Item::restore_state(in, service_.dim_));
    }
    // Tenancy checkpoints end with the shard accountant's ledger.
    if (in.done()) return;
    if (!accountant_) {
      throw persist::PersistError(
          "ShardedDispatcher: shard checkpoint carries tenant state but "
          "tenancy is off (set ShardedOptions::tenants)");
    }
    accountant_->restore_state(in);
  }

 private:
  /// `job` is now the job's record, on this shard.
  void claim(const Item& job) {
    JobRec& rec = service_.job_slot(job.id);
    rec.item = job;
    rec.shard.store(shard_, std::memory_order_release);
  }

  ShardedCore& service_;
  std::uint32_t shard_;
  std::optional<tenancy::UsageAccountant> accountant_;
};

ShardedCore::ShardedCore(std::size_t dim, const PolicyFactory& factory,
                         ShardedOptions options)
    : dim_(dim), options_(std::move(options)) {
  if (dim_ == 0) {
    throw std::invalid_argument("ShardedDispatcher: dim must be >= 1");
  }
  if (options_.shards == 0) {
    throw std::invalid_argument("ShardedDispatcher: shards must be >= 1");
  }
  if (options_.bin_capacity < 1.0) {
    throw std::invalid_argument(
        "ShardedDispatcher: bin_capacity must be >= 1");
  }
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument(
        "ShardedDispatcher: queue_capacity must be >= 1");
  }
  if (!factory) {
    throw std::invalid_argument("ShardedDispatcher: null policy factory");
  }

  // Reopening with fewer shards would silently drop the extra shards' jobs.
  const std::size_t journaled =
      options_.journal_dir.empty()
          ? 0
          : read_journal_layout(options_.journal_dir).shards;
  if (journaled > options_.shards) {
    throw persist::PersistError(
        "ShardedDispatcher: '" + options_.journal_dir +
        "' holds a journal for shard " + std::to_string(journaled - 1) +
        ", but the service has only " + std::to_string(options_.shards) +
        " shard(s); reopen with at least " + std::to_string(journaled));
  }

  // Each shard's engine recovers its directory as it is built -- each
  // shard independently, no cross-shard coordination -- and its listener
  // writes what it replays into the job table. Runs before any worker
  // starts, so recovery needs no locks.
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->policy = factory(s);
    if (shard->policy == nullptr) {
      throw std::invalid_argument(
          "ShardedDispatcher: policy factory returned null for shard " +
          std::to_string(s));
    }
    if (options_.metrics != nullptr) {
      shard->observer = std::make_unique<obs::Observer>(options_.metrics);
    }
    shard->listener =
        std::make_unique<Listener>(*this, static_cast<std::uint32_t>(s));
    persist::DurableOptions durable;
    if (!options_.journal_dir.empty()) {
      durable.dir = options_.journal_dir + "/shard-" + std::to_string(s);
    }
    durable.fsync = options_.fsync;
    durable.fsync_interval_ops = options_.fsync_interval_ops;
    durable.checkpoint_every = options_.checkpoint_every;
    durable.metrics = options_.metrics;
    durable.observer = shard->observer.get();
    durable.usage_hook = shard->listener.get();
    shard->engine = std::make_unique<persist::DurableDispatcher>(
        dim_, *shard->policy, std::move(durable), options_.bin_capacity);
    if (options_.metrics != nullptr) {
      const std::string prefix = "dvbp.shard." + std::to_string(s) + ".";
      shard->queue_depth = &options_.metrics->gauge(prefix + "queue_depth");
      shard->batch_size = &options_.metrics->histogram(
          prefix + "batch_size", batch_size_bounds());
      shard->placement_latency =
          &options_.metrics->histogram(prefix + "placement_latency_ns");
      shard->ops_applied_total =
          &options_.metrics->counter(prefix + "ops_applied_total");
    }
    shards_.push_back(std::move(shard));
  }
  rebuild_job_table();
}

ShardedCore::JobRec& ShardedCore::job_slot(std::uint64_t job) {
  if (job >= static_cast<std::uint64_t>(kMaxChunks) * kJobChunkSize) {
    throw std::length_error("ShardedDispatcher: job id space exhausted");
  }
  const std::size_t chunk = job >> kJobChunkBits;
  if (job_chunks_[chunk].load(std::memory_order_acquire) == nullptr) {
    std::lock_guard<std::mutex> lock(chunk_mu_);
    if (job_chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
      job_chunks_[chunk].store(new JobRec[kJobChunkSize],
                               std::memory_order_release);
    }
  }
  return job_rec(static_cast<JobId>(job));
}

// After recovery the job table holds what the shards' listeners restored
// and replayed: each job's record on the one shard whose history names it.
// The live jobs a checkpoint restored come back without a listener call,
// so they are written here.
void ShardedCore::rebuild_job_table() {
  std::uint64_t next = 0;
  for (const auto& shard : shards_) {
    next = std::max<std::uint64_t>(
        next, shard->engine->recorder().assignment().size());
  }
  if (next == 0) return;  // cold start
  next_job_.store(next, std::memory_order_release);
  // Default every recovered id to "departed": an id whose arrival frame
  // did not survive on its shard (it was admitted but lost in the crash)
  // must make a stale depart() fail cleanly.
  for (std::uint64_t id = 0; id < next; ++id) {
    job_slot(id).departed.store(true, std::memory_order_relaxed);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->engine->dispatcher().for_each_job(
        [&](const Dispatcher::LiveJob& job) {
          JobRec& rec = job_rec(job.item.id);
          rec.shard.store(static_cast<std::uint32_t>(s),
                          std::memory_order_relaxed);
          rec.departed.store(false, std::memory_order_relaxed);
          rec.item = job.item;
        });
  }
}

ShardedCore::~ShardedCore() {
  try {
    drain();
  } catch (...) {
  }
}

JobId ShardedCore::arrive(Time now, RVec size, Time expected_departure,
                          TenantId tenant) {
  return submit({.kind = Op::Kind::kArrive,
                 .time = now,
                 .size = std::move(size),
                 .expected_departure = expected_departure,
                 .tenant = tenant},
                true);
}

std::optional<JobId> ShardedCore::try_arrive(
    Time now, RVec size, Time expected_departure,
    std::shared_ptr<CompletionSink> sink, std::uint64_t cookie,
    TenantId tenant) {
  const JobId job = submit({.kind = Op::Kind::kArrive,
                            .time = now,
                            .size = std::move(size),
                            .expected_departure = expected_departure,
                            .tenant = tenant,
                            .sink = std::move(sink),
                            .cookie = cookie},
                           false);
  if (job == kNoItem) return std::nullopt;
  return job;
}

void ShardedCore::depart(Time now, JobId job) {
  submit({.kind = Op::Kind::kDepart, .time = now, .job = job}, true);
}

bool ShardedCore::try_depart(Time now, JobId job,
                             std::shared_ptr<CompletionSink> sink,
                             std::uint64_t cookie) {
  return submit({.kind = Op::Kind::kDepart,
                 .time = now,
                 .job = job,
                 .sink = std::move(sink),
                 .cookie = cookie},
                false) != kNoItem;
}

ShardedCore::JobRec& ShardedCore::checked_job_rec(JobId job,
                                                  const char* caller) const {
  if (job >= next_job_.load(std::memory_order_acquire) ||
      job_chunks_[job >> kJobChunkBits].load(std::memory_order_acquire) ==
          nullptr) {
    throw std::invalid_argument(std::string("ShardedDispatcher::") + caller +
                                ": unknown job");
  }
  return job_rec(job);
}

JobId ShardedCore::submit(Op op, bool wait) {
  const bool arrival = op.kind == Op::Kind::kArrive;
  // Validate here, in the producer, so a step cannot throw for caller
  // mistakes (mirrors Dispatcher::arrive's checks).
  if (arrival) {
    if (op.size.dim() != dim_) {
      throw std::invalid_argument(
          "ShardedDispatcher::arrive: dimension mismatch");
    }
    if (!op.size.is_nonnegative() || !op.size.fits_in_capacity(1.0)) {
      throw std::invalid_argument(
          "ShardedDispatcher::arrive: size outside [0,1]^d");
    }
    if (!(op.expected_departure > op.time)) {
      throw std::invalid_argument(
          "ShardedDispatcher::arrive: expected departure must exceed "
          "arrival");
    }
  }
  if (options_.metrics != nullptr) {
    op.enqueued = std::chrono::steady_clock::now();
  }
  for (;;) {
    std::size_t target = 0;
    if (arrival) {
      // The next id routes the arrival, but it is taken only with the push
      // below: a refused arrival burns no id, and a retry routes the id it
      // then finds.
      op.job = static_cast<JobId>(next_job_.load(std::memory_order_acquire));
      job_slot(op.job);
      target = static_cast<std::size_t>(op.job) % shards_.size();
    } else {
      target = checked_job_rec(op.job, "depart")
                   .shard.load(std::memory_order_acquire);
    }
    Shard& shard = *shards_[target];
    JobRec& rec = job_rec(op.job);
    const JobId job = op.job;
    std::size_t depth = 0;  // stays 0 when the queue is full
    bool was_empty = false;
    {
      std::lock_guard<std::mutex> lock(shard.qmu);
      // Every depart of a job queues on its owner shard, so this check is
      // exact: racing double-departs fail in exactly one caller.
      if (!arrival && rec.departed.load(std::memory_order_relaxed)) {
        throw std::invalid_argument(
            "ShardedDispatcher::depart: job already departed");
      }
      if (shard.queue.size() < options_.queue_capacity) {
        if (arrival) {
          std::uint64_t id = job;
          if (!next_job_.compare_exchange_strong(id, id + 1,
                                                 std::memory_order_acq_rel)) {
            continue;  // another producer took this id: route the next
          }
          rec.shard.store(static_cast<std::uint32_t>(target),
                          std::memory_order_release);
        } else {
          rec.departed.store(true, std::memory_order_relaxed);
        }
        shard.ops_enqueued.fetch_add(1, std::memory_order_relaxed);
        was_empty = shard.queue.empty();
        shard.queue.push_back(std::move(op));
        depth = shard.queue.size();
        shard.qsize.store(depth, std::memory_order_release);
      }
    }
    if (depth > 0) {
      if (shard.queue_depth != nullptr) {
        shard.queue_depth->set(static_cast<double>(depth));
      }
      // A worker sleeps only on an empty queue (it rechecks under qmu
      // before waiting), so only the empty -> non-empty transition needs a
      // wakeup; skipping the rest keeps the producer hot path cheap.
      if (was_empty) shard.not_empty.notify_one();
      return job;
    }
    if (!wait) return kNoItem;
    wait_for_room(target);
  }
}

// The one clamp-and-degrade rule. Several producers can interleave, so an op's timestamp may lag
// the shard clock; it is applied at the clock (the way an ingestion
// front-end stamps requests). A single producer's feed is monotone and
// never clamped. An arrival's advisory departure that the clamp overtakes
// is only a clairvoyant hint, so it degrades to "unknown" rather than
// throw. The journal records exactly what arrive() is called with, so
// replay reproduces the run bit-exactly by passing the frame verbatim.
void ShardedCore::apply(persist::DurableDispatcher& engine, Op& op) {
  const Time t = std::max(op.time, engine.dispatcher().last_event_time());
  if (op.kind == Op::Kind::kDepart) {
    engine.depart(t, op.job);
    return;
  }
  const Time expected = op.expected_departure > t
                            ? op.expected_departure
                            : std::numeric_limits<Time>::infinity();
  engine.arrive(t, Item(op.job, t, expected, std::move(op.size), op.tenant));
}

std::size_t ShardedCore::step(std::size_t shard_idx) {
  Shard& shard = shard_at(shard_idx, "step");
  // Each stepping thread reuses its own batch, so a step allocates nothing
  // once the thread has stepped before.
  thread_local std::vector<Op> batch;
  batch.reserve(kMaxBatch);
  std::uint64_t first = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> qlock(shard.qmu);
      const auto n = static_cast<std::ptrdiff_t>(
          std::min(shard.queue.size(), kMaxBatch));
      std::move(shard.queue.begin(), shard.queue.begin() + n,
                std::back_inserter(batch));
      shard.queue.erase(shard.queue.begin(), shard.queue.begin() + n);
      depth = shard.queue.size();
      shard.qsize.store(depth, std::memory_order_release);
    }
    if (batch.empty()) return 0;
    shard.not_full.notify_all();
    if (shard.queue_depth != nullptr) {
      shard.queue_depth->set(static_cast<double>(depth));
    }
    if (shard.batch_size != nullptr) {
      shard.batch_size->observe(static_cast<double>(batch.size()));
    }
    first = shard.ops_taken;
    shard.ops_taken += batch.size();

    // Group commit: the whole batch goes down with one write(2) and at
    // most one fsync. An op that does not both apply and commit fails.
    persist::DurableDispatcher& engine = *shard.engine;
    engine.begin_batch();
    for (Op& op : batch) {
      try {
        apply(engine, op);
      } catch (...) {
        // A service bug (producer-side validation screens caller
        // mistakes) or a dead journal: drain() rethrows the first error.
        record_error();
        op.job = kNoItem;
      }
      if (shard.ops_applied_total != nullptr) shard.ops_applied_total->inc();
      if (shard.placement_latency != nullptr) {
        const auto elapsed = std::chrono::steady_clock::now() - op.enqueued;
        shard.placement_latency->observe(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
      }
    }
    try {
      engine.end_batch();
    } catch (...) {
      record_error();
      for (Op& op : batch) op.job = kNoItem;
    }
  }

  // Completions fire after the batch's commit and outside the shard lock,
  // but BEFORE progress is published: when drain() returns, every
  // accepted op's completion has already run -- the guarantee the
  // server's graceful drain leans on.
  for (const Op& op : batch) {
    if (op.sink != nullptr) op.sink->op_applied(op.cookie, op.job);
  }
  // Publish in queue order: a concurrent stepper that took the previous
  // batch publishes first.
  while (shard.ops_applied.load(std::memory_order_acquire) != first) {
    std::this_thread::yield();
  }
  const std::size_t taken = batch.size();
  shard.ops_applied.store(first + taken, std::memory_order_release);
  batch.clear();
  return taken;
}

void ShardedCore::record_error() {
  std::lock_guard<std::mutex> error_lock(error_mu_);
  if (!error_) error_ = std::current_exception();
}

void ShardedCore::rethrow_error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (error_) std::rethrow_exception(error_);
}

ShardedCore::Shard& ShardedCore::shard_at(
    std::size_t shard, const char* caller) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(std::string("ShardedDispatcher::") + caller +
                                ": bad shard");
  }
  return *shards_[shard];
}

const persist::RecoveryReport& ShardedCore::shard_recovery(
    std::size_t shard) const {
  return shard_at(shard, "shard_recovery").engine->recovery();
}

std::uint64_t ShardedCore::ops_enqueued() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->ops_enqueued.load(std::memory_order_relaxed);
  }
  return total;
}

void ShardedCore::drain() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    const std::uint64_t target =
        shard.ops_enqueued.load(std::memory_order_acquire);
    while (shard.ops_applied.load(std::memory_order_acquire) < target) {
      // Nothing left to take: another stepper is still completing them.
      if (step(s) == 0) std::this_thread::yield();
    }
  }
  rethrow_error();
}

void ShardedCore::sync_journals() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    // A step drives the engine only under shard.mu, so holding it here
    // excludes concurrent appends.
    std::lock_guard<std::mutex> lock(shard.mu);
    try {
      shard.engine->flush();
    } catch (...) {
      record_error();
    }
  }
  rethrow_error();
}

std::uint64_t ShardedCore::ops_applied() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->ops_applied.load(std::memory_order_acquire);
  }
  return total;
}

std::size_t ShardedCore::jobs_admitted() const {
  return static_cast<std::size_t>(
      next_job_.load(std::memory_order_acquire));
}

std::size_t ShardedCore::shard_of(JobId job) const {
  return checked_job_rec(job, "shard_of")
      .shard.load(std::memory_order_acquire);
}

double ShardedCore::cost_so_far(Time at) const {
  double total = 0.0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    total += shard_cost_so_far(s, at);
  }
  return total;
}

std::size_t ShardedCore::open_bins() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->engine->dispatcher().open_bins();
  }
  return total;
}

std::size_t ShardedCore::bins_opened() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->engine->dispatcher().bins_opened();
  }
  return total;
}

std::size_t ShardedCore::jobs_active() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->engine->dispatcher().jobs_active();
  }
  return total;
}

double ShardedCore::shard_cost_so_far(std::size_t shard,
                                            Time at) const {
  const Shard& s = shard_at(shard, "shard_cost_so_far");
  std::lock_guard<std::mutex> lock(s.mu);
  return s.engine->dispatcher().cost_so_far(at);
}

std::size_t ShardedCore::shard_bins_opened(std::size_t shard) const {
  const Shard& s = shard_at(shard, "shard_bins_opened");
  std::lock_guard<std::mutex> lock(s.mu);
  return s.engine->dispatcher().bins_opened();
}

std::size_t ShardedCore::shard_jobs_admitted(std::size_t shard) const {
  const Shard& s = shard_at(shard, "shard_jobs_admitted");
  std::lock_guard<std::mutex> lock(s.mu);
  return s.engine->dispatcher().jobs_admitted();
}

void ShardedCore::require_quiescent() const {
  if (ops_applied() != ops_enqueued()) {
    throw std::logic_error(
        "ShardedDispatcher: snapshot requires quiescence (call drain() "
        "with no concurrent producers)");
  }
  rethrow_error();
}

Packing ShardedCore::shard_packing(std::size_t shard) const {
  return shard_recorder(shard).packing();
}

Packing ShardedCore::snapshot() const {
  require_quiescent();
  // Bin ids are renumbered shard-major: shard s's bins keep their relative
  // opening order and start at its offset. A job is in one shard's history.
  std::vector<BinId> assignment(jobs_admitted(), kNoBin);
  std::vector<BinRecord> bins;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const auto offset = static_cast<BinId>(bins.size());
    const PackingRecorder& recorder = shard->engine->recorder();
    for (BinRecord& rec : recorder.bin_records()) {
      rec.id += offset;
      bins.push_back(std::move(rec));
    }
    const std::vector<BinId>& placed = recorder.assignment();
    for (JobId job = 0; job < placed.size(); ++job) {
      if (placed[job] != kNoBin) assignment[job] = placed[job] + offset;
    }
  }
  return Packing(std::move(assignment), std::move(bins));
}

const Item& ShardedCore::job_item(JobId job) const {
  require_quiescent();
  const Item& item = checked_job_rec(job, "job_item").item;
  if (item.id == kNoItem) {
    throw std::invalid_argument(
        "ShardedDispatcher::job_item: job was never applied");
  }
  return item;
}

const Dispatcher& ShardedCore::shard_dispatcher(
    std::size_t shard) const {
  const Shard& s = shard_at(shard, "shard_dispatcher");
  require_quiescent();
  return s.engine->dispatcher();
}

const PackingRecorder& ShardedCore::shard_recorder(
    std::size_t shard) const {
  const Shard& s = shard_at(shard, "shard_recorder");
  require_quiescent();
  return s.engine->recorder();
}

const tenancy::UsageAccountant* ShardedCore::shard_accountant(
    std::size_t shard) const {
  return shard_at(shard, "shard_accountant").listener->accountant();
}

std::vector<double> ShardedCore::settle_tenants(
    Time now, tenancy::Arbiter& arbiter) {
  require_quiescent();
  if (options_.tenants == 0) {
    throw std::logic_error(
        "ShardedDispatcher::settle_tenants: tenancy is off "
        "(ShardedOptions::tenants == 0)");
  }
  if (arbiter.num_tenants() != options_.tenants) {
    throw std::invalid_argument(
        "ShardedDispatcher::settle_tenants: arbiter tenant count does not "
        "match ShardedOptions::tenants");
  }
  // Close the epoch on every shard at the same instant, then merge the
  // per-tenant integrals. Quiescence makes the merged vector exact: no op
  // is mid-flight, so every shard's ledger covers the same history.
  std::vector<double> usage(options_.tenants, 0.0);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    tenancy::UsageAccountant& accountant = *shard.listener->accountant();
    accountant.on_advance(std::max(now, accountant.last_event()),
                          shard.engine->dispatcher().open_bins());
    const std::vector<double> cut = accountant.cut_epoch();
    for (std::uint32_t t = 0; t < options_.tenants; ++t) usage[t] += cut[t];
  }
  arbiter.settle(now, usage);
  // One authoritative credit frame, journaled on shard 0: recovery of that
  // shard restores the newest durably settled balances.
  Shard& shard0 = *shards_[0];
  std::lock_guard<std::mutex> lock(shard0.mu);
  shard0.engine->settle_credits(now, arbiter.state_bytes());
  return usage;
}

ShardedDispatcher::ShardedDispatcher(std::size_t dim,
                                     const PolicyFactory& factory,
                                     ShardedOptions options)
    : ShardedCore(dim, factory, std::move(options)) {
  try {
    for (std::size_t s = 0; s < shards(); ++s) {
      workers_.emplace_back([this, s] { work(s); });
    }
  } catch (...) {
    stop_workers();
    throw;
  }
}

ShardedDispatcher::~ShardedDispatcher() { stop_workers(); }

void ShardedDispatcher::stop_workers() noexcept {
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    // A worker checks stopping_ under qmu before it sleeps, so this notify
    // cannot slip between its check and its wait.
    { std::lock_guard<std::mutex> lock(shard->qmu); }
    shard->not_empty.notify_all();
    shard->not_full.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ShardedDispatcher::wait_for_room(std::size_t shard_idx) {
  Shard& shard = *shards_[shard_idx];
  {
    // Every step that takes ops notifies not_full, so the worker makes the
    // room; the producer sleeps instead of competing for the shard.
    std::unique_lock<std::mutex> lock(shard.qmu);
    shard.not_full.wait(lock, [&] {
      return stopping_.load(std::memory_order_acquire) ||
             shard.queue.size() < options_.queue_capacity;
    });
  }
  // Once the workers stop, the core makes room itself.
  if (stopping_.load(std::memory_order_acquire)) {
    ShardedCore::wait_for_room(shard_idx);
  }
}

void ShardedDispatcher::work(std::size_t shard_idx) {
  Shard& shard = *shards_[shard_idx];
  while (!stopping_.load(std::memory_order_acquire)) {
    // Spin briefly before sleeping: under sustained load the queue refills
    // within microseconds, and skipping the condvar round-trip (futex wake
    // + scheduler latency per empty->non-empty transition) is what keeps
    // a lightly-loaded shard's throughput from being wakeup-bound. Falls
    // through to a normal blocking wait when the spin finds nothing.
    for (int spin = 0;
         spin < 4000 &&
         shard.qsize.load(std::memory_order_acquire) == 0 &&
         !stopping_.load(std::memory_order_acquire);
         ++spin) {
      // Donate the slice periodically: on an oversubscribed machine the
      // producer that would refill this queue may be waiting for this very
      // core, and a blind spin would burn the whole quantum starving it.
      // With spare cores and nothing runnable, yield() returns immediately
      // and the loop stays hot.
      if ((spin & 63) == 63) std::this_thread::yield();
    }
    {
      std::unique_lock<std::mutex> lock(shard.qmu);
      shard.not_empty.wait(lock, [&] {
        return stopping_.load(std::memory_order_acquire) ||
               !shard.queue.empty();
      });
    }
    step(shard_idx);  // after a stop, the core's destructor drains the rest
  }
}

}  // namespace dvbp::cloud

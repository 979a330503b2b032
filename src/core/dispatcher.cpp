#include "core/dispatcher.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fits.hpp"
#include "core/simulator.hpp"  // PolicyViolation
#include "obs/observer.hpp"

namespace dvbp {

Dispatcher::Dispatcher(std::size_t dim, Policy& policy, double bin_capacity,
                       obs::Observer* observer)
    : dim_(dim), policy_(policy), capacity_(bin_capacity), obs_(observer),
      table_(dim, bin_capacity) {
  if (dim_ == 0) {
    throw std::invalid_argument("Dispatcher: dim must be >= 1");
  }
  if (capacity_ < 1.0) {
    throw std::invalid_argument("Dispatcher: bin_capacity must be >= 1");
  }
  policy_.reset();
}

void Dispatcher::check_time(Time now) const {
  if (started_ && now < now_ - kTimeEps) {
    throw std::invalid_argument("Dispatcher: time went backwards");
  }
}

void Dispatcher::check_arrival(Time now, const RVec& size,
                               Time expected_departure) const {
  check_time(now);
  if (size.dim() != dim_) {
    throw std::invalid_argument("Dispatcher::arrive: dimension mismatch");
  }
  // One pass for RVec::is_nonnegative() && fits_in_capacity(1.0); NaN
  // fails the comparison and is rejected.
  const double threshold = fits_threshold(1.0);
  for (const double c : size) {
    if (!(c >= 0.0 && fits_under_threshold(c, threshold))) {
      throw std::invalid_argument(
          "Dispatcher::arrive: size outside [0,1]^d");
    }
  }
  if (!(expected_departure > now)) {
    throw std::invalid_argument(
        "Dispatcher::arrive: expected departure must exceed arrival");
  }
}

void Dispatcher::advance_clock(Time now) noexcept {
  started_ = true;
  now_ = std::max(now_, now);
}

Dispatcher::Admission Dispatcher::arrive(Time now, RVec size,
                                         Time expected_departure,
                                         TenantId tenant) {
  check_arrival(now, size, expected_departure);
  const std::uint32_t slot = claim_job_slot(static_cast<JobId>(jobs_admitted_));
  Item& item = jobs_[slot].item;
  item.id = static_cast<JobId>(jobs_admitted_);
  item.arrival = now;
  item.departure = expected_departure;
  item.size = std::move(size);
  item.tenant = tenant;
  return admit(now, slot);
}

Dispatcher::Admission Dispatcher::arrive(Time now, const Item& item) {
  check_arrival(now, item.size, item.departure);
  const std::uint32_t slot = claim_job_slot(item.id);
  jobs_[slot].item = item;
  jobs_[slot].item.arrival = now;
  return admit(now, slot);
}

// Maps `job`, which must not be live, to a free slot of the job table.
// The slot's item stays unnamed (id == kNoItem) until admit() admits it.
std::uint32_t Dispatcher::claim_job_slot(JobId job) {
  const auto slot = static_cast<std::uint32_t>(
      free_jobs_.empty() ? jobs_.size() : free_jobs_.back());
  if (job == kNoItem || !job_slot_.insert(job, slot)) {
    throw std::invalid_argument("Dispatcher::arrive: job id " +
                                std::to_string(job) +
                                " is reserved or already live");
  }
  if (free_jobs_.empty()) {
    jobs_.emplace_back();
  } else {
    free_jobs_.pop_back();
  }
  return slot;
}

// Unmaps the job in `slot` and returns the slot to the free list.
void Dispatcher::release_job_slot(std::uint32_t slot) noexcept {
  job_slot_.erase(jobs_[slot].item.id);
  jobs_[slot].item.id = kNoItem;
  free_jobs_.push_back(slot);
}

std::uint32_t Dispatcher::placed_slot(JobId job, const char* caller) const {
  const std::uint32_t slot = job_slot_.find(job);
  if (slot == IdMap::kAbsent || jobs_[slot].bin == kNoBin) {
    throw std::invalid_argument(
        std::string("Dispatcher::") + caller + ": job " +
        std::to_string(job) +
        (slot == IdMap::kAbsent ? " is not live" : " is evicted"));
  }
  return slot;
}

// The job's item is filled into a claimed slot. Nothing else changes
// until the policy's decision has been checked, so a rejected decision
// only has to release the slot again.
Dispatcher::Admission Dispatcher::admit(Time now, std::uint32_t job_slot) {
  const Item& item = jobs_[job_slot].item;
  BinId chosen = kNoBin;
  std::uint32_t slot = kNoSlot;
  try {
    {
      obs::ScopedTimer timer(obs_ != nullptr ? obs_->decision_latency()
                                             : nullptr);
      chosen = policy_.select_bin(now, item, views_, table_);
    }
    if (chosen != kNoBin) {
      slot = bin_slot_.find(chosen);
      if (slot == IdMap::kAbsent) {
        throw PolicyViolation("Dispatcher: policy '" +
                              std::string(policy_.name()) +
                              "' selected a bin that is not open");
      }
      if (!table_.fits(slot, item.size.data())) {
        throw PolicyViolation("Dispatcher: policy '" +
                              std::string(policy_.name()) +
                              "' selected a bin that cannot hold the job");
      }
    }
  } catch (...) {
    release_job_slot(job_slot);
    throw;
  }

  advance_clock(now);
  jobs_[job_slot].rank = jobs_admitted_++;
  if (usage_hook_ != nullptr) {
    usage_hook_->on_arrive(item, now, open_bins());
  }
  std::size_t rejections = 0;
  if (obs_ != nullptr) {
    obs_->on_arrival(now, item.id,
                     std::span<const double>(item.size.begin(),
                                             item.size.dim()),
                     open_bins());
    if (obs_->tracing()) {  // a reject record per bin that cannot hold it
      for (std::size_t k = 0; k < views_.size(); ++k) {
        if (views_[k].id == kNoBin) continue;  // a hole
        if (!table_.fits(k, item.size.data())) {
          ++rejections;
          obs_->on_reject(now, item.id, views_[k].id);
        }
      }
    } else if (obs_->metrics() != nullptr) {  // the fit-failure count only
      rejections = open_bins() - table_.count_fitting(item.size.data());
    }
  }
  const BinId bin = place(now, job_slot, slot);
  if (obs_ != nullptr) {
    obs_->on_place(now, item.id, bin, chosen == kNoBin, rejections);
  }
  return Admission{item.id, bin, chosen == kNoBin};
}

// Packs the job in `job_slot` into the open bin in `slot` (already
// checked to fit), or into a freshly opened bin when `slot` == kNoSlot,
// and tells the recorder and the policy.
BinId Dispatcher::place(Time now, std::uint32_t job_slot,
                        std::uint32_t slot) {
  const Item& item = jobs_[job_slot].item;
  const bool fresh = slot == kNoSlot;
  if (fresh) {
    const auto id = static_cast<BinId>(bins_opened_++);
    slot = static_cast<std::uint32_t>(views_.size());
    bin_slot_.insert(id, slot);
    views_.push_back(BinView{id, now, 0, 0.0});
    bins_.emplace_back(id, now, &usage_pool_);
    table_.push_back_zero();
    if (recorder_ != nullptr) recorder_->open(id, now);
    if (obs_ != nullptr) obs_->on_open(now, id);
  }
  BinState& bin = bins_[slot];
  bin.add(item);
  table_.add(slot, item.size.data());
  views_[slot].num_items = bin.num_active();
  views_[slot].latest_departure = bin.latest_departure();
  jobs_[job_slot].bin = bin.id();
  if (recorder_ != nullptr) recorder_->place(item.id, bin.id());
  if (fresh) {
    policy_.on_open(now, bin.id(), item);
  } else {
    policy_.on_pack(now, bin.id(), item);
  }
  return bin.id();
}

void Dispatcher::depart(Time now, JobId job) {
  check_time(now);
  const std::uint32_t job_slot = placed_slot(job, "depart");
  advance_clock(now);
  Item& item = jobs_[job_slot].item;
  // Patch the actual departure so latest-departure bookkeeping is honest.
  item.departure = now;
  if (usage_hook_ != nullptr) {
    usage_hook_->on_depart(item, now, open_bins());
  }
  take_out(now, job_slot, /*departing=*/true);
  release_job_slot(job_slot);
}

Dispatcher::Eviction Dispatcher::evict(Time now, JobId job) {
  check_time(now);
  const std::uint32_t job_slot = placed_slot(job, "evict");
  advance_clock(now);
  // The job stays active (no demand change), but the bin count may step.
  // Its departure field is left alone: the job is still running.
  if (usage_hook_ != nullptr) {
    usage_hook_->on_advance(now, open_bins());
  }
  ++evicted_jobs_;
  return take_out(now, job_slot, /*departing=*/false);
}

// Takes the job in `job_slot` out of its bin -- a departure or an
// eviction -- and tells the observer and the policy. A bin that empties
// closes permanently: its usage folds into closed_usage_ and its slot
// becomes a hole.
Dispatcher::Eviction Dispatcher::take_out(Time now, std::uint32_t job_slot,
                                          bool departing) {
  const Item& item = jobs_[job_slot].item;
  const BinId bin = jobs_[job_slot].bin;
  const std::uint32_t slot = bin_slot_.find(bin);
  BinState& state = bins_[slot];
  const Time opened = state.opened_at();
  const bool emptied = state.remove(item);
  if (emptied) {
    closed_usage_ += Interval(opened, now).length();
    if (recorder_ != nullptr) recorder_->close(bin, now);
    bin_slot_.erase(bin);
    close_slot(slot);
  } else {
    table_.sub_clamped(slot, item.size.data());
    views_[slot].num_items = state.num_active();
    views_[slot].latest_departure = state.latest_departure();
  }
  jobs_[job_slot].bin = kNoBin;
  if (obs_ != nullptr) {
    if (departing) {
      obs_->on_depart(now, item.id, bin, emptied);
    } else {
      obs_->on_evict(now, item.id, bin, emptied);
    }
    if (emptied) obs_->on_close(now, bin, opened);
  }
  policy_.on_depart(now, bin, item, emptied);
  return Eviction{bin, emptied};
}

BinId Dispatcher::replace(Time now, JobId job, BinId target) {
  check_time(now);
  const std::uint32_t job_slot = job_slot_.find(job);
  if (job_slot == IdMap::kAbsent || jobs_[job_slot].bin != kNoBin) {
    throw std::invalid_argument(
        "Dispatcher::replace: job is not in the evicted state");
  }
  std::uint32_t slot = kNoSlot;
  if (target != kNoBin) {
    slot = bin_slot_.find(target);
    if (slot == IdMap::kAbsent) {
      throw PolicyViolation("Dispatcher::replace: target bin is not open");
    }
    if (!table_.fits(slot, jobs_[job_slot].item.size.data())) {
      throw PolicyViolation(
          "Dispatcher::replace: target bin cannot hold the job");
    }
  }
  advance_clock(now);
  if (usage_hook_ != nullptr) {
    usage_hook_->on_advance(now, open_bins());
  }
  --evicted_jobs_;
  const BinId bin = place(now, job_slot, slot);
  if (obs_ != nullptr) obs_->on_replace(now, job, bin, target == kNoBin);
  return bin;
}

// Leaves a hole where the closed bin was: O(d), and no other slot moves,
// so the slots stay in opening order without renumbering anything. The
// hole's BinState is empty and stays until compact() drops it.
void Dispatcher::close_slot(std::uint32_t slot) {
  views_[slot] = BinView{};
  table_.make_hole(slot);
  ++holes_;
  if (holes_ * kCompactFraction > views_.size()) compact();
}

// Squeezes the holes out in one pass, moving each live slot's view, item
// list and load together. Live slots keep their relative (opening) order,
// so every scan still meets the bins in the same order.
void Dispatcher::compact() {
  std::uint32_t live = 0;
  for (std::uint32_t slot = 0; slot < views_.size(); ++slot) {
    const BinId id = views_[slot].id;
    if (id == kNoBin) continue;
    if (live != slot) {
      views_[live] = views_[slot];
      bins_[live] = std::move(bins_[slot]);
      table_.move_slot(slot, live);
      bin_slot_.remap(id, live);
    }
    ++live;
  }
  views_.resize(live);
  bins_.erase(bins_.begin() + live, bins_.end());
  table_.truncate(live);
  holes_ = 0;
}

namespace {
// In-band version marker for the dispatcher state stream: a leading
// sentinel no plausible dim collides with (streams before v3 started
// directly with the u64 dim). v4 holds live state only; bump the low bits
// on the next layout change.
constexpr std::uint64_t kStateMagic = 0xFFFFFFFF00000000ull;
constexpr std::uint64_t kStateVersion = 4;
}  // namespace

void Dispatcher::save_state(serial::Writer& out) const {
  out.u64(kStateMagic | kStateVersion);
  out.u64(dim_);
  out.f64(capacity_);
  out.f64(now_);
  out.u8(started_ ? 1 : 0);
  out.u64(jobs_admitted_);
  out.u64(bins_opened_);
  out.f64(closed_usage_);

  out.u64(open_bins());
  for (std::size_t slot = 0; slot < views_.size(); ++slot) {
    if (views_[slot].id == kNoBin) continue;  // a hole
    out.u32(views_[slot].id);
    out.f64(views_[slot].opened_at);
    // The load as raw bits: re-adding the active items on restore would
    // reorder the floating-point sums and could flip a later fit by an ulp.
    out.u64(dim_);
    for (std::size_t j = 0; j < dim_; ++j) out.f64(table_.lane(j)[slot]);
    bins_[slot].save_state(out);
  }

  // Admission order, not slot order: the stream is canonical.
  std::vector<const JobSlot*> live;
  for (const JobSlot& slot : jobs_) {
    if (slot.item.id != kNoItem) live.push_back(&slot);
  }
  std::sort(live.begin(), live.end(),
            [](const JobSlot* a, const JobSlot* b) { return a->rank < b->rank; });
  out.u64(live.size());
  for (const JobSlot* slot : live) {
    slot->item.save_state(out);
    out.u32(slot->bin);
  }
}

void Dispatcher::restore_state(serial::Reader& in) {
  if (jobs_admitted_ != 0 || bins_opened_ != 0 || started_) {
    throw std::logic_error(
        "Dispatcher::restore_state: dispatcher already has state");
  }
  const std::uint64_t magic = in.u64();
  if (magic != (kStateMagic | kStateVersion)) {
    const bool versioned = (magic & kStateMagic) == kStateMagic;
    throw serial::SerialError(
        "Dispatcher::restore_state: state stream " +
        (versioned ? "v" + std::to_string(magic & ~kStateMagic)
                   : std::string("from before v3")) +
        " is not supported; this build reads v4");
  }
  if (in.u64() != dim_) {
    throw serial::SerialError(
        "Dispatcher::restore_state: dimension mismatch");
  }
  if (in.f64() != capacity_) {
    throw serial::SerialError(
        "Dispatcher::restore_state: bin_capacity mismatch");
  }
  now_ = in.f64();
  started_ = in.u8() != 0;
  jobs_admitted_ = in.u64();
  bins_opened_ = in.u64();
  closed_usage_ = in.f64();

  const std::uint64_t num_open = in.u64();
  std::size_t placed = 0;
  RVec load(dim_);
  for (std::uint64_t k = 0; k < num_open; ++k) {
    const BinId id = in.u32();
    // Bins open in id order, so opening order is ascending ids; a repeat
    // or a swap would restore a table that decides differently.
    if (id >= bins_opened_ || (!views_.empty() && id <= views_.back().id)) {
      throw serial::SerialError(
          "Dispatcher::restore_state: open bins not in opening order");
    }
    const Time opened = in.f64();
    if (in.u64() != dim_) {
      throw serial::SerialError(
          "Dispatcher::restore_state: bin load dimension mismatch");
    }
    for (std::size_t j = 0; j < dim_; ++j) load[j] = in.f64();
    table_.push_back_raw(load.data());
    BinState& bin = bins_.emplace_back(id, opened, &usage_pool_);
    bin.restore_state(in);
    placed += bin.num_active();
    bin_slot_.insert(id, static_cast<std::uint32_t>(k));
    views_.push_back(
        BinView{id, opened, bin.num_active(), bin.latest_departure()});
  }

  const std::uint64_t num_jobs = in.u64();
  for (std::uint64_t i = 0; i < num_jobs; ++i) {
    JobSlot& slot = jobs_.emplace_back();
    slot.item = Item::restore_state(in, dim_);
    slot.rank = i;
    slot.bin = in.u32();
    if (slot.item.id == kNoItem ||
        !job_slot_.insert(slot.item.id, static_cast<std::uint32_t>(i)) ||
        (slot.bin != kNoBin && bin_slot_.find(slot.bin) == IdMap::kAbsent)) {
      throw serial::SerialError(
          "Dispatcher::restore_state: a job with a reserved or repeated id, "
          "or in a bin that is not open");
    }
    if (slot.bin == kNoBin) ++evicted_jobs_;
  }
  if (placed != jobs_.size() - evicted_jobs_) {
    throw serial::SerialError(
        "Dispatcher::restore_state: open bins disagree with the live jobs");
  }
}

double Dispatcher::cost_so_far(Time at) const {
  if (at >= now_) {
    // Every closed bin closed at or before now_ <= at, so its clamped
    // contribution is its full usage time: use the running sum and only
    // walk the open bins.
    double total = closed_usage_;
    for (const BinView& view : views_) {
      if (view.id == kNoBin) continue;  // a hole
      total += std::max(0.0, at - view.opened_at);
    }
    return total;
  }
  if (recorder_ == nullptr) {
    throw std::invalid_argument(
        "Dispatcher::cost_so_far: a time before the last event needs the "
        "closed bins' records; attach a PackingRecorder");
  }
  return recorder_->cost_at(at);
}

}  // namespace dvbp

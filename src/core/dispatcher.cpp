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
      table_(dim, bin_capacity),
      hole_load_(dim, std::numeric_limits<double>::infinity()) {
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
  const auto job = static_cast<JobId>(items_.size());
  return admit(now, items_.emplace_back(job, now, expected_departure,
                                        std::move(size), tenant));
}

Dispatcher::Admission Dispatcher::arrive(Time now, const Item& item) {
  check_arrival(now, item.size, item.departure);
  Item& admitted = items_.emplace_back(item);
  admitted.arrival = now;
  return admit(now, admitted);
}

// `item` is items_.back(), just appended by arrive(). Nothing else changes
// until the policy's decision has been checked, so a rejected decision
// only has to drop the item again.
Dispatcher::Admission Dispatcher::admit(Time now, const Item& item) {
  BinId chosen = kNoBin;
  try {
    {
      obs::ScopedTimer timer(obs_ != nullptr ? obs_->decision_latency()
                                             : nullptr);
      chosen = policy_.select_bin(now, item, views_, table_);
    }
    if (chosen != kNoBin &&
        (chosen >= bins_.size() || slot_of_[chosen] == kNoSlot)) {
      throw PolicyViolation("Dispatcher: policy '" +
                            std::string(policy_.name()) +
                            "' selected a bin that is not open");
    }
    if (chosen != kNoBin && !bins_[chosen].fits(item.size)) {
      throw PolicyViolation("Dispatcher: policy '" +
                            std::string(policy_.name()) +
                            "' selected a bin that cannot hold the job");
    }
  } catch (...) {
    items_.pop_back();
    throw;
  }

  advance_clock(now);
  ++active_jobs_;
  if (usage_hook_ != nullptr) {
    usage_hook_->on_arrive(item.tenant, now, item.size, open_bins());
  }
  std::size_t rejections = 0;
  if (obs_ != nullptr) {
    obs_->on_arrival(now, item.id,
                     std::span<const double>(item.size.begin(),
                                             item.size.dim()),
                     open_bins());
    if (obs_->wants_rejections()) {
      for (const BinView& view : views_) {
        if (view.id == kNoBin) continue;  // a hole
        if (!bins_[view.id].fits(item.size)) {
          ++rejections;
          obs_->on_reject(now, item.id, view.id);
        }
      }
    }
  }
  const auto job = static_cast<JobId>(jobs_.size());
  const BinId bin = place(now, item, jobs_.emplace_back(), chosen);
  if (obs_ != nullptr) {
    obs_->on_place(now, item.id, bin, chosen == kNoBin, rejections);
  }
  return Admission{job, bin, chosen == kNoBin};
}

// Packs `item` into open bin `target` (already checked to fit), or into a
// freshly opened bin when `target` == kNoBin, and tells the policy.
BinId Dispatcher::place(Time now, const Item& item, JobState& job,
                        BinId target) {
  const bool fresh = target == kNoBin;
  std::uint32_t slot;
  BinState* bin;
  if (fresh) {
    target = static_cast<BinId>(bins_.size());
    // bins_ is a chunked slab: emplace never moves existing BinStates,
    // so views_ load pointers stay valid with no repatching.
    bin = &bins_.emplace_back(target, dim_, now, capacity_, &usage_pool_);
    records_.push_back(BinRecord{target, now, now, {}});
    slot = static_cast<std::uint32_t>(views_.size());
    slot_of_.push_back(slot);
    table_.push_back_zero();
    views_.push_back(BinView{target, &bin->load(), now, 0, 0.0, capacity_});
    if (obs_ != nullptr) obs_->on_open(now, target);
  } else {
    slot = slot_of_[target];
    bin = &bins_[target];
  }
  bin->add(item);
  table_.add(slot, item.size.data());
  views_[slot].num_items = bin->num_active();
  views_[slot].latest_departure = bin->latest_departure();
  records_[target].items.push_back(item.id);
  job.bin = target;
  job.last_bin = target;
  if (fresh) {
    policy_.on_open(now, target, item);
  } else {
    policy_.on_pack(now, target, item);
  }
  return target;
}

// Takes `item` out of open bin `bin_id`, closing the bin permanently when
// it empties. Returns whether it did.
bool Dispatcher::unplace(Time now, const Item& item, BinId bin_id) {
  const std::uint32_t slot = slot_of_[bin_id];
  if (slot == kNoSlot) {
    throw std::logic_error("Dispatcher: job's bin is not open");
  }
  BinState& bin = bins_[bin_id];
  const bool emptied = bin.remove(item);
  if (emptied) {
    records_[bin_id].closed = now;
    closed_usage_ += records_[bin_id].usage_time();
    close_slot(slot);
  } else {
    table_.sub_clamped(slot, item.size.data());
    views_[slot].num_items = bin.num_active();
    views_[slot].latest_departure = bin.latest_departure();
  }
  return emptied;
}

void Dispatcher::depart(Time now, JobId job) {
  check_time(now);
  if (job >= jobs_.size()) {
    throw std::invalid_argument("Dispatcher::depart: unknown job");
  }
  JobState& state = jobs_[job];
  const BinId bin = state.bin;
  if (bin == kNoBin) {
    throw std::invalid_argument(
        state.evicted
            ? "Dispatcher::depart: job is evicted; replace() it first"
            : "Dispatcher::depart: job already departed");
  }
  advance_clock(now);
  Item& item = items_[job];
  // Patch the actual departure so latest-departure bookkeeping is honest.
  item.departure = now;
  if (usage_hook_ != nullptr) {
    usage_hook_->on_depart(item.tenant, now, item.size, open_bins());
  }
  const bool emptied = unplace(now, item, bin);
  state.bin = kNoBin;
  --active_jobs_;
  if (obs_ != nullptr) {
    obs_->on_depart(now, item.id, bin, emptied);
    if (emptied) obs_->on_close(now, bin, records_[bin].opened);
  }
  policy_.on_depart(now, bin, item, emptied);
}

Dispatcher::Eviction Dispatcher::evict(Time now, JobId job) {
  check_time(now);
  if (job >= jobs_.size()) {
    throw std::invalid_argument("Dispatcher::evict: unknown job");
  }
  JobState& state = jobs_[job];
  const BinId bin = state.bin;
  if (bin == kNoBin) {
    throw std::invalid_argument(
        state.evicted ? "Dispatcher::evict: job already evicted"
                      : "Dispatcher::evict: job already departed");
  }
  advance_clock(now);
  // The job stays active (no demand change), but the bin count may step.
  if (usage_hook_ != nullptr) {
    usage_hook_->on_advance(now, open_bins());
  }
  // The item's departure field is left alone: the job is still running.
  const Item& item = items_[job];
  const bool emptied = unplace(now, item, bin);
  state.bin = kNoBin;
  state.evicted = true;
  ++evicted_jobs_;
  if (obs_ != nullptr) {
    obs_->on_evict(now, item.id, bin, emptied);
    if (emptied) obs_->on_close(now, bin, records_[bin].opened);
  }
  policy_.on_depart(now, bin, item, emptied);
  return Eviction{bin, emptied};
}

BinId Dispatcher::replace(Time now, JobId job, BinId target) {
  check_time(now);
  if (job >= jobs_.size() || !jobs_[job].evicted) {
    throw std::invalid_argument(
        "Dispatcher::replace: job is not in the evicted state");
  }
  const Item& item = items_[job];
  if (target != kNoBin) {
    if (target >= bins_.size() || slot_of_[target] == kNoSlot) {
      throw PolicyViolation("Dispatcher::replace: target bin is not open");
    }
    if (!bins_[target].fits(item.size)) {
      throw PolicyViolation(
          "Dispatcher::replace: target bin cannot hold the job");
    }
  }
  advance_clock(now);
  if (usage_hook_ != nullptr) {
    usage_hook_->on_advance(now, open_bins());
  }
  JobState& state = jobs_[job];
  state.evicted = false;
  --evicted_jobs_;
  const BinId bin = place(now, item, state, target);
  if (obs_ != nullptr) obs_->on_replace(now, item.id, bin, target == kNoBin);
  return bin;
}

BinId Dispatcher::last_bin_of(JobId job) const {
  if (job >= jobs_.size()) {
    throw std::invalid_argument("Dispatcher::last_bin_of: unknown job");
  }
  return jobs_[job].last_bin;
}

Packing Dispatcher::packing() const {
  std::vector<BinId> assignment;
  assignment.reserve(jobs_.size());
  for (const JobState& state : jobs_) assignment.push_back(state.last_bin);
  return Packing(std::move(assignment), records_);
}

// Leaves a hole where the closed bin was: O(d), and no other slot moves,
// so the table stays in opening order without renumbering anything.
void Dispatcher::close_slot(std::uint32_t slot) {
  slot_of_[views_[slot].id] = kNoSlot;
  views_[slot] = BinView{kNoBin, &hole_load_, 0.0, 0, 0.0, capacity_};
  table_.make_hole(slot);
  ++holes_;
  if (holes_ * kCompactFraction > views_.size()) compact();
}

// Squeezes the holes out in one pass. Live slots keep their relative
// (opening) order, so every scan still meets the bins in the same order.
void Dispatcher::compact() {
  std::uint32_t live = 0;
  for (std::uint32_t slot = 0; slot < views_.size(); ++slot) {
    const BinId id = views_[slot].id;
    if (id == kNoBin) continue;
    if (live != slot) {
      views_[live] = views_[slot];
      table_.move_slot(slot, live);
      slot_of_[id] = live;
    }
    ++live;
  }
  views_.resize(live);
  table_.truncate(live);
  holes_ = 0;
}

double Dispatcher::total_active_load() const noexcept {
  // Served from the SoA table: no BinState chunk lookup or RVec data()
  // indirection per bin, same summation order (see total_load()).
  return table_.total_load();
}

BinId Dispatcher::bin_of(JobId job) const {
  if (job >= jobs_.size()) {
    throw std::invalid_argument("Dispatcher::bin_of: unknown job");
  }
  return jobs_[job].bin;
}

namespace {
// In-band version marker for the dispatcher state stream. Streams written
// before tenancy start directly with the u64 dim (a small integer), so a
// leading sentinel no plausible dim can collide with makes the stream
// self-describing: v3 adds the per-item tenant id, older streams load with
// every item anonymous. Bump the low bits on the next layout change.
constexpr std::uint64_t kStateV3Magic = 0xFFFFFFFF00000003ull;
}  // namespace

void Dispatcher::save_state(serial::Writer& out) const {
  out.u64(kStateV3Magic);
  out.u64(dim_);
  out.f64(capacity_);
  out.f64(now_);
  out.u8(started_ ? 1 : 0);
  out.u64(active_jobs_);
  out.f64(closed_usage_);

  out.u64(items_.size());
  for (JobId job = 0; job < items_.size(); ++job) {
    const Item& item = items_[job];
    // The stream stores no ids: restore_state() renames job j to item j.
    if (item.id != job) {
      throw std::logic_error(
          "Dispatcher::save_state: job admitted under a foreign item id");
    }
    out.f64(item.arrival);
    out.f64(item.departure);
    out.u32(item.tenant);
    for (double c : item.size) out.f64(c);
  }
  for (const JobState& state : jobs_) out.u32(state.bin);
  for (const JobState& state : jobs_) {
    out.u32(state.last_bin);
    out.u8(state.evicted ? 1 : 0);
  }

  out.u64(records_.size());
  for (const BinRecord& rec : records_) {
    out.f64(rec.opened);
    out.f64(rec.closed);
    out.u64(rec.items.size());
    for (ItemId r : rec.items) out.u32(r);
  }

  out.u64(open_bins());
  for (const BinView& view : views_) {
    if (view.id == kNoBin) continue;  // a hole
    out.u64(view.id);
    bins_[view.id].save_state(out);
  }
}

void Dispatcher::restore_state(serial::Reader& in) {
  if (!items_.empty() || !bins_.empty() || started_) {
    throw std::logic_error(
        "Dispatcher::restore_state: dispatcher already has state");
  }
  std::uint64_t first = in.u64();
  const bool has_tenants = first == kStateV3Magic;
  if (has_tenants) first = in.u64();  // v3: the dim follows the marker
  if (first != dim_) {
    throw serial::SerialError(
        "Dispatcher::restore_state: dimension mismatch");
  }
  if (in.f64() != capacity_) {
    throw serial::SerialError(
        "Dispatcher::restore_state: bin_capacity mismatch");
  }
  now_ = in.f64();
  started_ = in.u8() != 0;
  active_jobs_ = in.u64();
  closed_usage_ = in.f64();

  const std::uint64_t num_items = in.u64();
  for (std::uint64_t i = 0; i < num_items; ++i) {
    const Time arrival = in.f64();
    const Time departure = in.f64();
    const TenantId tenant = has_tenants ? in.u32() : kNoTenant;
    RVec size(dim_);
    for (std::size_t j = 0; j < dim_; ++j) size[j] = in.f64();
    items_.emplace_back(static_cast<ItemId>(i), arrival, departure,
                        std::move(size), tenant);
  }
  jobs_.resize(num_items);
  for (JobState& state : jobs_) state.bin = in.u32();
  for (JobState& state : jobs_) {
    state.last_bin = in.u32();
    state.evicted = in.u8() != 0;
    if (state.evicted) ++evicted_jobs_;
  }

  const std::uint64_t num_bins = in.u64();
  records_.reserve(num_bins);
  for (std::uint64_t b = 0; b < num_bins; ++b) {
    BinRecord rec;
    rec.id = static_cast<BinId>(b);
    rec.opened = in.f64();
    rec.closed = in.f64();
    const std::uint64_t n = in.u64();
    rec.items.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) rec.items.push_back(in.u32());
    records_.push_back(std::move(rec));
  }
  // Every bin gets a shell at its historical opening time; open bins are
  // then filled below with their exact saved state.
  for (std::uint64_t b = 0; b < num_bins; ++b) {
    bins_.emplace_back(static_cast<BinId>(b), dim_, records_[b].opened,
                       capacity_, &usage_pool_);
  }
  slot_of_.assign(num_bins, kNoSlot);

  const std::uint64_t num_open = in.u64();
  if (num_open > num_bins) {
    throw serial::SerialError(
        "Dispatcher::restore_state: more open bins than bins");
  }
  views_.reserve(num_open);
  for (std::uint64_t k = 0; k < num_open; ++k) {
    const std::uint64_t idx = in.u64();
    if (idx >= num_bins) {
      throw serial::SerialError(
          "Dispatcher::restore_state: open-bin index out of range");
    }
    // Bins open in id order, so opening order is ascending ids; a repeat
    // or a swap would restore a table that decides differently.
    if (!views_.empty() && idx <= views_.back().id) {
      throw serial::SerialError(
          "Dispatcher::restore_state: open bins not in opening order");
    }
    bins_[idx].restore_state(in);
    slot_of_[idx] = static_cast<std::uint32_t>(k);
    const BinState& bin = bins_[idx];
    // Raw-bit copy into the table lane: the restored slot is
    // bit-identical to the saved load, like the RVec it mirrors.
    table_.push_back_raw(bin.load().data());
    views_.push_back(BinView{bin.id(), &bin.load(), bin.opened_at(),
                             bin.num_active(), bin.latest_departure(),
                             bin.capacity()});
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
  // Historical query: clamp closed bins to [opened, min(at, closed)).
  double total = 0.0;
  for (const BinRecord& rec : records_) {
    const bool open = slot_of_[rec.id] != kNoSlot;
    const Time end = open ? at : std::min(at, rec.closed);
    total += std::max(0.0, end - rec.opened);
  }
  return total;
}

}  // namespace dvbp

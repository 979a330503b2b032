#include "core/policies/next_fit.hpp"

#include "core/open_bin_table.hpp"

namespace dvbp {

BinId NextFitPolicy::select_bin(Time now, const Item& item,
                                std::span<const BinView> open_bins,
                                const OpenBinTable& table) {
  if (current_ == kNoBin) return kNoBin;
  // The current bin is the most recently opened bin, so while it is still
  // open it sits at the END of the opening-order view -- scan backwards
  // and it is found in O(1) instead of O(open bins).
  for (std::size_t slot = open_bins.size(); slot-- > 0;) {
    if (open_bins[slot].id != current_) continue;
    if (table.fits(slot, item.size.data())) return current_;
    // Current bin cannot hold the item: release it and ask for a new bin.
    releases_.push_back({current_, now, item.id});
    current_ = kNoBin;
    return kNoBin;
  }
  // The current bin closed (emptied) without being released.
  current_ = kNoBin;
  return kNoBin;
}

void NextFitPolicy::on_open(Time, BinId bin, const Item&) { current_ = bin; }

void NextFitPolicy::on_depart(Time, BinId bin, const Item&, bool closed) {
  if (closed && bin == current_) current_ = kNoBin;
}

void NextFitPolicy::reset() {
  current_ = kNoBin;
  releases_.clear();
}

void NextFitPolicy::save_state(serial::Writer& out) const {
  out.u32(current_);
  out.u64(releases_.size());
  for (const Release& r : releases_) {
    out.u32(r.bin);
    out.f64(r.time);
    out.u32(r.trigger);
  }
}

void NextFitPolicy::restore_state(serial::Reader& in) {
  reset();
  current_ = in.u32();
  const std::uint64_t n = in.u64();
  releases_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Release r;
    r.bin = in.u32();
    r.time = in.f64();
    r.trigger = in.u32();
    releases_.push_back(r);
  }
}

}  // namespace dvbp

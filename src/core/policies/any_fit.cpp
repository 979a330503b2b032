#include "core/policies/any_fit.hpp"

#include "core/open_bin_table.hpp"

namespace dvbp {

BinId AnyFitPolicy::select_bin(Time now, const Item& item,
                               std::span<const BinView> open_bins,
                               const OpenBinTable& table) {
  fit_slots_.clear();
  table.collect_fitting(item.size.data(), fit_slots_);
  if (fit_slots_.empty()) return kNoBin;
  fitting_.clear();
  fitting_.reserve(fit_slots_.size());
  for (const std::uint32_t slot : fit_slots_) {
    fitting_.push_back(open_bins[slot]);
  }
  return choose(now, item, std::span<const BinView>(fitting_));
}

}  // namespace dvbp

#include "core/policies/first_fit.hpp"

#include "core/open_bin_table.hpp"

namespace dvbp {

BinId FirstFitPolicy::select_bin(Time, const Item& item,
                                 std::span<const BinView> open_bins,
                                 const OpenBinTable& table) {
  const std::size_t slot = table.find_first_fit(item.size.data());
  return slot == OpenBinTable::npos ? kNoBin : open_bins[slot].id;
}

}  // namespace dvbp

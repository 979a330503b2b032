#include "core/policies/worst_fit.hpp"

#include "core/open_bin_table.hpp"

namespace dvbp {

BinId WorstFitPolicy::select_bin(Time, const Item& item,
                                 std::span<const BinView> open_bins,
                                 const OpenBinTable& table) {
  const std::size_t slot =
      table.find_worst_fit(item.size.data(), static_cast<int>(measure_));
  return slot == OpenBinTable::npos ? kNoBin : open_bins[slot].id;
}

}  // namespace dvbp

#include "core/policies/any_fit.hpp"

#include "core/open_bin_table.hpp"

namespace dvbp {

BinId AnyFitPolicy::select_bin(Time now, const Item& item,
                               std::span<const BinView> open_bins,
                               const OpenBinTable& table) {
  fitting_.clear();
  table.collect_fitting(item.size.data(), fitting_);
  if (fitting_.empty()) return kNoBin;
  return choose(now, item, open_bins, table, fitting_);
}

}  // namespace dvbp

#include "core/policies/best_fit.hpp"

#include <stdexcept>

#include "core/open_bin_table.hpp"

namespace dvbp {

std::string_view load_measure_name(LoadMeasure m) noexcept {
  switch (m) {
    case LoadMeasure::kLinf:
      return "Linf";
    case LoadMeasure::kL1:
      return "L1";
    case LoadMeasure::kL2:
      return "L2";
  }
  return "?";
}

double measure_load(const RVec& load, LoadMeasure m) {
  switch (m) {
    case LoadMeasure::kLinf:
      return load.linf();
    case LoadMeasure::kL1:
      return load.l1();
    case LoadMeasure::kL2:
      return load.lp(2.0);
  }
  throw std::invalid_argument("measure_load: unknown measure");
}

BinId BestFitPolicy::select_bin(Time, const Item& item,
                                std::span<const BinView> open_bins,
                                const OpenBinTable& table) {
  const std::size_t slot =
      table.find_best_fit(item.size.data(), static_cast<int>(measure_));
  return slot == OpenBinTable::npos ? kNoBin : open_bins[slot].id;
}

}  // namespace dvbp

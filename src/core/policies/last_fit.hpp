// Last Fit: place the item in the most recently *opened* bin that can hold
// it (paper Sec. 7). Contrast with Move To Front, which uses the most
// recently *used* bin.
#pragma once

#include "core/policies/policy.hpp"

namespace dvbp {

class LastFitPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "LastFit"; }

  /// Whole decision in one vectorized scan: latest fitting slot.
  BinId select_bin(Time now, const Item& item,
                   std::span<const BinView> open_bins,
                   const OpenBinTable& table) override;
};

}  // namespace dvbp

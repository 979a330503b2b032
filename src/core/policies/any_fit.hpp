// AnyFitPolicy: base class enforcing the Any Fit property (paper Sec. 2.2):
// a new bin is opened only when the arriving item fits in none of the open
// bins. Concrete subclasses implement choose() over the non-empty set of
// fitting slots, for rules that need per-bin metadata (Move To Front's
// stamps, a random draw, departure-time extensions).
//
// First/Last/Best/Worst Fit reduce to a single open-bin table scan whose
// kernel returns "none" only when nothing fits, so they implement Policy
// directly and have the Any Fit property by the same construction. Next
// Fit is not Any Fit: it restricts its list L to a single current bin (it
// may open a new bin even though some released bin could hold the item).
#pragma once

#include <cstdint>
#include <vector>

#include "core/policies/policy.hpp"

namespace dvbp {

class AnyFitPolicy : public Policy {
 public:
  /// The fitting slots come from the table's vectorized scan and go to
  /// choose().
  BinId select_bin(Time now, const Item& item,
                   std::span<const BinView> open_bins,
                   const OpenBinTable& table) final;

 protected:
  /// Pick a bin among the slots `fitting` (non-empty, ascending, so in
  /// opening order) of `open_bins` and `table`.
  virtual BinId choose(Time now, const Item& item,
                       std::span<const BinView> open_bins,
                       const OpenBinTable& table,
                       std::span<const std::uint32_t> fitting) = 0;

 private:
  std::vector<std::uint32_t> fitting_;  // scratch, reused across arrivals
};

}  // namespace dvbp

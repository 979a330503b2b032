// AnyFitPolicy: base class enforcing the Any Fit property (paper Sec. 2.2):
// a new bin is opened only when the arriving item fits in none of the open
// bins. Concrete subclasses implement choose() over the non-empty set of
// fitting bins, for rules that need per-bin metadata (Move To Front's
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
  /// The fitting set is computed by the table's vectorized scan
  /// (bit-identical to per-view fits()) and handed to choose().
  BinId select_bin(Time now, const Item& item,
                   std::span<const BinView> open_bins,
                   const OpenBinTable& table) final;

 protected:
  /// Pick a bin from `fitting` (non-empty; preserves opening order).
  virtual BinId choose(Time now, const Item& item,
                       std::span<const BinView> fitting) = 0;

 private:
  std::vector<BinView> fitting_;           // scratch, reused across arrivals
  std::vector<std::uint32_t> fit_slots_;   // scratch for the table scan
};

}  // namespace dvbp

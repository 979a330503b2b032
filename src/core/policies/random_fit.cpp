#include "core/policies/random_fit.hpp"

namespace dvbp {

BinId RandomFitPolicy::choose(Time, const Item&,
                              std::span<const BinView> open_bins,
                              const OpenBinTable&,
                              std::span<const std::uint32_t> fitting) {
  const auto idx = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(fitting.size()) - 1));
  return open_bins[fitting[idx]].id;
}

}  // namespace dvbp

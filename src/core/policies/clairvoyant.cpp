#include "core/policies/clairvoyant.hpp"

#include <cmath>
#include <sstream>

#include "core/open_bin_table.hpp"

namespace dvbp {

BinId MinExtensionFitPolicy::choose(Time, const Item& item,
                                    std::span<const BinView> open_bins,
                                    const OpenBinTable& table,
                                    std::span<const std::uint32_t> fitting) {
  const Time depart = perceived_departure(item);
  BinId best = open_bins[fitting.front()].id;
  double best_ext =
      std::max(0.0, depart - open_bins[fitting.front()].latest_departure);
  double best_load = measure_load(table.load(fitting.front()), tie_measure_);
  for (std::size_t i = 1; i < fitting.size(); ++i) {
    const BinView& bin = open_bins[fitting[i]];
    const double ext = std::max(0.0, depart - bin.latest_departure);
    const double load = measure_load(table.load(fitting[i]), tie_measure_);
    if (ext < best_ext - kTimeEps ||
        (ext <= best_ext + kTimeEps && load > best_load)) {
      best_ext = std::min(best_ext, ext);
      best_load = load;
      best = bin.id;
    }
  }
  return best;
}

Time MinExtensionFitPolicy::perceived_departure(const Item& item) {
  return item.departure;
}

NoisyMinExtensionFitPolicy::NoisyMinExtensionFitPolicy(double sigma,
                                                       std::uint64_t seed)
    : sigma_(sigma), seed_(seed), rng_(seed) {
  std::ostringstream os;
  os << "NoisyMinExtensionFit[sigma=" << sigma_ << "]";
  name_ = os.str();
}

void NoisyMinExtensionFitPolicy::reset() {
  MinExtensionFitPolicy::reset();
  rng_ = Xoshiro256pp(seed_);
}

Time NoisyMinExtensionFitPolicy::perceived_departure(const Item& item) {
  const double factor = std::exp(sigma_ * rng_.normal());
  return item.arrival + item.duration() * factor;
}

}  // namespace dvbp

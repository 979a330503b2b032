// Clairvoyant extensions (paper Sec. 8, future-work direction): policies
// that may read the departure time of the arriving item. Included to
// quantify, on the Sec. 7 workload, how much duration information is worth
// (bench E11).
//
//  * MinExtensionFit: place the item where it extends the bin's projected
//    usage period the least (extension = max(0, e(r) - latest departure in
//    bin)); ties broken toward the most-loaded bin. With exact departures
//    this directly attacks the usage-time objective.
//  * NoisyMinExtensionFit: same rule, but the policy sees a *predicted*
//    departure: duration multiplied by exp(sigma * N(0,1)). sigma = 0
//    recovers the clairvoyant policy; growing sigma models an ML duration
//    predictor of decreasing quality.
#pragma once

#include <string>

#include "core/policies/any_fit.hpp"
#include "core/policies/best_fit.hpp"
#include "stats/rng.hpp"

namespace dvbp {

class MinExtensionFitPolicy : public AnyFitPolicy {
 public:
  explicit MinExtensionFitPolicy(LoadMeasure tie_measure = LoadMeasure::kLinf)
      : tie_measure_(tie_measure) {}

  std::string_view name() const noexcept override { return "MinExtensionFit"; }
  bool is_clairvoyant() const noexcept override { return true; }

 protected:
  BinId choose(Time now, const Item& item,
               std::span<const BinView> open_bins, const OpenBinTable& table,
               std::span<const std::uint32_t> fitting) override;

  /// Departure time the policy believes; overridden by the noisy variant.
  virtual Time perceived_departure(const Item& item);

 private:
  LoadMeasure tie_measure_;
};

class NoisyMinExtensionFitPolicy final : public MinExtensionFitPolicy {
 public:
  /// `sigma` is the stddev of the multiplicative log-normal duration error.
  NoisyMinExtensionFitPolicy(double sigma, std::uint64_t seed = 0xFACEu);

  std::string_view name() const noexcept override { return name_; }
  void reset() override;
  double sigma() const noexcept { return sigma_; }

  /// Checkpoint the noise stream position (see RandomFitPolicy).
  void save_state(serial::Writer& out) const override {
    for (std::uint64_t w : rng_.state()) out.u64(w);
    out.f64(rng_.spare_normal());
    out.u8(rng_.has_spare_normal() ? 1 : 0);
  }

  void restore_state(serial::Reader& in) override {
    std::array<std::uint64_t, 4> s;
    for (std::uint64_t& w : s) w = in.u64();
    const double spare = in.f64();
    const bool has_spare = in.u8() != 0;
    rng_.set_state(s, spare, has_spare);
  }

 protected:
  Time perceived_departure(const Item& item) override;

 private:
  double sigma_;
  std::uint64_t seed_;
  Xoshiro256pp rng_;
  std::string name_;
};

}  // namespace dvbp

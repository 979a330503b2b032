#include "gen/traces.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace dvbp::gen {

namespace {

/// Samples from {1..m} with P(v) proportional to v^-alpha, via the inverse
/// CDF over the precomputed (small) support.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t m, double alpha) {
    if (m < 1) throw std::invalid_argument("ZipfSampler: m >= 1");
    if (alpha <= 0.0) throw std::invalid_argument("ZipfSampler: alpha > 0");
    cdf_.reserve(static_cast<std::size_t>(m));
    double total = 0.0;
    for (std::int64_t v = 1; v <= m; ++v) {
      total += std::pow(static_cast<double>(v), -alpha);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::int64_t sample(Xoshiro256pp& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::int64_t>(it - cdf_.begin()) + 1;
  }

 private:
  std::vector<double> cdf_;
};

RVec uniform_size(const UniformParams& p, Xoshiro256pp& rng) {
  RVec size(p.d);
  const double scale = 1.0 / static_cast<double>(p.bin_size);
  for (std::size_t j = 0; j < p.d; ++j) {
    size[j] = static_cast<double>(rng.uniform_int(1, p.bin_size)) * scale;
  }
  return size;
}

}  // namespace

Instance zipf_duration_instance(const ZipfDurationParams& params,
                                Xoshiro256pp& rng) {
  params.base.validate();
  const ZipfSampler durations(params.base.mu, params.alpha);
  Instance inst(params.base.d);
  inst.reserve(params.base.n);
  for (std::size_t i = 0; i < params.base.n; ++i) {
    const auto arrival = static_cast<Time>(
        rng.uniform_int(0, params.base.span - params.base.mu));
    const auto duration = static_cast<Time>(durations.sample(rng));
    inst.add(arrival, arrival + duration, uniform_size(params.base, rng));
  }
  inst.sort_by_arrival();
  return inst;
}

Instance bursty_arrival_instance(const BurstyArrivalParams& params,
                                 Xoshiro256pp& rng) {
  params.base.validate();
  if (params.bursts == 0) {
    throw std::invalid_argument("bursty_arrival_instance: bursts >= 1");
  }
  // Cluster centers leave room for the jitter plus the max duration.
  const std::int64_t center_max =
      std::max<std::int64_t>(0, params.base.span - params.base.mu -
                                    params.burst_width);
  std::vector<std::int64_t> centers(params.bursts);
  for (auto& c : centers) c = rng.uniform_int(0, center_max);

  Instance inst(params.base.d);
  inst.reserve(params.base.n);
  for (std::size_t i = 0; i < params.base.n; ++i) {
    const auto& center = centers[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(params.bursts) - 1))];
    const auto arrival =
        static_cast<Time>(center + rng.uniform_int(0, params.burst_width));
    const auto duration =
        static_cast<Time>(rng.uniform_int(1, params.base.mu));
    inst.add(arrival, arrival + duration, uniform_size(params.base, rng));
  }
  inst.sort_by_arrival();
  return inst;
}

Instance diurnal_arrival_instance(const DiurnalArrivalParams& params,
                                  Xoshiro256pp& rng) {
  params.base.validate();
  if (params.amplitude < 0.0 || params.amplitude >= 1.0) {
    throw std::invalid_argument(
        "diurnal_arrival_instance: amplitude in [0, 1)");
  }
  const double window =
      static_cast<double>(params.base.span - params.base.mu);
  const double period = params.period > 0.0 ? params.period : window;
  constexpr double kTwoPi = 6.283185307179586476925286766559;

  Instance inst(params.base.d);
  inst.reserve(params.base.n);
  for (std::size_t i = 0; i < params.base.n; ++i) {
    // Rejection sampling against the normalized intensity.
    Time arrival = 0.0;
    for (;;) {
      const double t = rng.uniform(0.0, window);
      const double intensity =
          (1.0 + params.amplitude *
                     std::sin(kTwoPi * t / period + params.phase)) /
          (1.0 + params.amplitude);
      if (rng.uniform() <= intensity) {
        arrival = std::floor(t);  // keep the integral-time envelope
        break;
      }
    }
    const auto duration =
        static_cast<Time>(rng.uniform_int(1, params.base.mu));
    inst.add(arrival, arrival + duration, uniform_size(params.base, rng));
  }
  inst.sort_by_arrival();
  return inst;
}

Instance correlated_size_instance(const CorrelatedSizeParams& params,
                                  Xoshiro256pp& rng) {
  params.base.validate();
  if (params.rho < 0.0 || params.rho > 1.0) {
    throw std::invalid_argument("correlated_size_instance: rho in [0,1]");
  }
  Instance inst(params.base.d);
  inst.reserve(params.base.n);
  const auto b = params.base.bin_size;
  const double scale = 1.0 / static_cast<double>(b);
  for (std::size_t i = 0; i < params.base.n; ++i) {
    const auto arrival = static_cast<Time>(
        rng.uniform_int(0, params.base.span - params.base.mu));
    const auto duration =
        static_cast<Time>(rng.uniform_int(1, params.base.mu));
    const auto dominant = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(params.base.d) - 1));
    const double dom_units = static_cast<double>(rng.uniform_int(1, b));
    RVec size(params.base.d);
    for (std::size_t j = 0; j < params.base.d; ++j) {
      double units;
      if (j == dominant) {
        units = dom_units;
      } else {
        const double fresh = static_cast<double>(rng.uniform_int(1, b));
        units = params.rho * dom_units + (1.0 - params.rho) * fresh;
      }
      // Round to the integral grid, clamped to {1..B}.
      units = std::clamp(std::round(units), 1.0, static_cast<double>(b));
      size[j] = units * scale;
    }
    inst.add(arrival, arrival + duration, std::move(size));
  }
  inst.sort_by_arrival();
  return inst;
}

}  // namespace dvbp::gen

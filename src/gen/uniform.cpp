#include "gen/uniform.hpp"

#include <stdexcept>

namespace dvbp::gen {

void UniformParams::validate() const {
  if (d == 0) throw std::invalid_argument("UniformParams: d must be >= 1");
  if (n == 0) throw std::invalid_argument("UniformParams: n must be >= 1");
  if (mu < 1) throw std::invalid_argument("UniformParams: mu must be >= 1");
  if (bin_size < 1) {
    throw std::invalid_argument("UniformParams: bin_size must be >= 1");
  }
  if (span < mu) {
    throw std::invalid_argument("UniformParams: span must be >= mu");
  }
}

Instance uniform_instance(const UniformParams& params, Xoshiro256pp& rng) {
  params.validate();
  Instance inst(params.d);
  inst.reserve(params.n);
  const double scale = 1.0 / static_cast<double>(params.bin_size);
  for (std::size_t i = 0; i < params.n; ++i) {
    const auto arrival =
        static_cast<Time>(rng.uniform_int(0, params.span - params.mu));
    const auto duration = static_cast<Time>(rng.uniform_int(1, params.mu));
    RVec size(params.d);
    for (std::size_t j = 0; j < params.d; ++j) {
      size[j] =
          static_cast<double>(rng.uniform_int(1, params.bin_size)) * scale;
    }
    inst.add(arrival, arrival + duration, std::move(size));
  }
  inst.sort_by_arrival();
  return inst;
}

Instance uniform_instance(const UniformParams& params, std::uint64_t seed,
                          std::uint64_t trial) {
  Xoshiro256pp rng = Xoshiro256pp::for_trial(seed, trial);
  return uniform_instance(params, rng);
}

}  // namespace dvbp::gen

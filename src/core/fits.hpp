// The single feasibility comparison of the whole library.
//
// Every placement decision reduces to "does load + s(r) stay within the
// bin's capacity in every dimension, up to the library-wide tolerance?"
// (paper Sec. 2: s(r) in [0,1]^d, unit bins; cap > 1 under resource
// augmentation). That comparison must produce the SAME answer everywhere
// it is asked -- the scalar RVec path, the SIMD open-bin table, and the
// PackingInvariantChecker audit -- or a vectorized Release build could
// admit an item the audit (or a scalar replica) rejects, by one ulp.
//
// The rule, in one place: precompute the threshold `cap + eps` ONCE per
// query (never re-derive it per lane or per dimension, where a different
// association could round differently) and test `sum <= threshold` with
// an ordered, non-signaling <= . The open-bin table's SIMD kernels only
// prefilter on load bytes (core/fit_kernels.hpp) and never evaluate this
// predicate; the table admits a slot only through it.
#pragma once

#include <cstddef>

#include "core/types.hpp"

namespace dvbp {

/// The feasibility threshold for a bin of uniform capacity `cap`.
/// Computed once per query; all paths compare against this exact double.
constexpr double fits_threshold(double cap,
                                double eps = kCapacityEps) noexcept {
  return cap + eps;
}

/// The feasibility predicate: `sum` (load + item, one dimension) is
/// admissible against a precomputed threshold. NaN compares false, so a
/// poisoned (+inf / NaN) lane never fits.
constexpr bool fits_under_threshold(double sum, double threshold) noexcept {
  return sum <= threshold;
}

/// Scalar d-dimensional feasibility: load + add <= threshold in every
/// dimension. This is the reference implementation every SIMD kernel must
/// agree with bit-for-bit.
inline bool fits_under_threshold(const double* load, const double* add,
                                 std::size_t dim, double threshold) noexcept {
  for (std::size_t i = 0; i < dim; ++i) {
    if (!fits_under_threshold(load[i] + add[i], threshold)) return false;
  }
  return true;
}

}  // namespace dvbp

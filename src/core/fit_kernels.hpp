// The open-bin table's fit-mask kernels (core/open_bin_table.cpp), listed
// so a test can run every kernel this CPU supports against the scalar
// reference -- not only the one OpenBinTable dispatches to. Private to the
// library: the install rule leaves this header out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dvbp::detail {

/// Bit s of the result is set iff lanes[j*stride + base + s] + add[j] <= thr
/// for every j < dim (one IEEE add and one ordered, quiet <= per
/// dimension, as in fits.hpp). `count` is a multiple of
/// OpenBinTable::kSimdWidth from 8 to 64; `base + count` must not pass
/// `stride`.
using FitMaskFn = std::uint64_t (*)(const double* lanes, std::size_t dim,
                                    std::size_t stride, std::size_t base,
                                    std::size_t count, const double* add,
                                    double thr);

struct FitKernel {
  const char* name;
  FitMaskFn fn;
  bool supported;  ///< this CPU reports the instructions `fn` needs
};

/// Every kernel compiled into this build, the scalar reference first and
/// the widest last. OpenBinTable runs the last supported one.
std::span<const FitKernel> fit_kernels() noexcept;

}  // namespace dvbp::detail

// The open-bin table's load-byte prefilter (core/open_bin_table.cpp): how a
// load becomes a byte, the per-query byte bound, and the kernels that
// compare a block of chunks of byte lanes against that bound. Listed so a
// test can run every kernel this CPU supports against the scalar reference
// -- not only the one OpenBinTable dispatches to -- and check the bound
// against the exact predicate. Private to the library: the install rule leaves
// this header out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dvbp::detail {

/// Slots one candidate mask covers: a chunk.
inline constexpr std::size_t kChunkSlots = 64;

/// The byte stored beside a load: floor(load * scale), scale = 255 /
/// capacity, clamped to [0, 255]. A load at or past the capacity, +inf (a
/// hole or padding) and NaN map to 255, a load at or below zero to 0.
/// Monotone: x <= y implies load_byte(x) <= load_byte(y), because IEEE
/// multiplication by a positive constant, the clamp and truncation all
/// preserve order, and 255 is the largest byte.
inline std::uint8_t load_byte(double load, double capacity,
                              double scale) noexcept {
  // Clamped before the conversion, so that is defined for every input,
  // and with no branch, so loops over dimensions vectorize.
  double x = load * scale;
  x = x > 0.0 ? x : 0.0;  // NaN too
  x = x < 255.0 ? x : 255.0;
  return load < capacity ? static_cast<std::uint8_t>(x) : 255;
}

/// The largest byte a load x can have when fl(x + add) <= threshold, the
/// fits.hpp predicate for one dimension (add >= 0, threshold >= 1). So a
/// slot whose byte exceeds the bound in any dimension cannot fit, and the
/// prefilter never drops a fitting slot.
///
/// Why: with u = 2^-53, fl(x + add) <= t gives x <= t - add + 2ut, while
/// y = fl(fl(t - add) + t * 2^-40) >= t - add + t(2^-40 - 3u) when add <=
/// 2t (larger adds admit only negative x, whose byte is 0). 2^-40 > 5u, so
/// y >= x, and load_byte is monotone. The slack is relative, so it holds
/// for any capacity; a zero add gives y > capacity and bound 255.
inline std::uint8_t fit_bound(double add, double threshold, double capacity,
                              double scale) noexcept {
  return load_byte(threshold - add + threshold * 0x1p-40, capacity, scale);
}

/// Dimensions whose bounds a SIMD kernel holds in registers for a whole
/// call. A table of d <= kRegisterDims runs the register path, one body
/// compiled per d: its d bound broadcasts are loaded once per call, and
/// each chunk is compared in all d dimensions with one exit test, after the
/// first. That test goes one way for long stretches -- on a dense trace a
/// 64-bin chunk all but never dies in its first dimension, on a table of
/// full bins it always does -- where an exit test after every dimension,
/// whose outcome varies from chunk to chunk, mispredicts. A larger d runs
/// the long-d path: the first kRegisterDims dimensions the same way, then
/// the rest one at a time from memory, leaving the chunk once no slot
/// survives. The scalar reference leaves a chunk after any dimension.
inline constexpr std::size_t kRegisterDims = 16;

/// Fills the candidate masks of `chunks` consecutive chunks, the first at
/// slot `base`: bit s of masks[c] is set iff
/// bytes[j*stride + base + c*kChunkSlots + s] <= bound[j] for every
/// j < dim. `base + chunks*kChunkSlots` must not pass `stride`. A table
/// scan calls one per block of up to 16 chunks (core/open_bin_table.cpp).
using FitMaskFn = void (*)(const std::uint8_t* bytes, std::size_t dim,
                           std::size_t stride, std::size_t base,
                           std::size_t chunks, const std::uint8_t* bound,
                           std::uint64_t* masks);

struct FitKernel {
  const char* name;
  /// The mask function a table of `dim` dimensions runs.
  FitMaskFn (*masks)(std::size_t dim) noexcept;
  bool supported;  ///< this CPU reports the instructions `masks` needs
};

/// Every kernel compiled into this build, the scalar reference first and
/// the widest last. OpenBinTable runs the last supported one.
std::span<const FitKernel> fit_kernels() noexcept;

}  // namespace dvbp::detail

#include "core/open_bin_table.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/fit_kernels.hpp"

#if !defined(DVBP_DISABLE_SIMD) && defined(__x86_64__)
#define DVBP_SIMD_X86 1
#include <immintrin.h>
#endif

namespace dvbp {

namespace {

constexpr double kPoison = std::numeric_limits<double>::infinity();

/// Slots examined per kernel call: one 64-bit fit mask. The scans below
/// early-exit at this granularity, so a First Fit that lands in the first
/// chunk never pays for the rest of the table.
constexpr std::size_t kChunkSlots = 64;

using detail::FitKernel;

// The semantics reference for every kernel below (see fit_kernels.hpp),
// and the only kernel under -DDVBP_DISABLE_SIMD.
std::uint64_t fit_mask_scalar(const double* lanes, std::size_t dim,
                              std::size_t stride, std::size_t base,
                              std::size_t count, const double* add,
                              double thr) {
  std::uint64_t mask = 0;
  for (std::size_t s = 0; s < count; ++s) {
    bool ok = true;
    for (std::size_t j = 0; j < dim; ++j) {
      if (!fits_under_threshold(lanes[j * stride + base + s] + add[j], thr)) {
        ok = false;
        break;
      }
    }
    if (ok) mask |= std::uint64_t{1} << s;
  }
  return mask;
}

#if DVBP_SIMD_X86

// SSE2 is part of the x86-64 baseline; no target attribute needed.
// _mm_cmple_pd is ordered and quiet: NaN/inf lanes compare false,
// matching the scalar `sum <= thr`.
std::uint64_t fit_mask_sse2(const double* lanes, std::size_t dim,
                            std::size_t stride, std::size_t base,
                            std::size_t count, const double* add,
                            double thr) {
  std::uint64_t mask = 0;
  const __m128d thrv = _mm_set1_pd(thr);
  for (std::size_t s = 0; s < count; s += 2) {
    __m128d ok = _mm_castsi128_pd(_mm_set1_epi64x(-1));
    int bits = 0x3;
    for (std::size_t j = 0; j < dim; ++j) {
      const __m128d load = _mm_loadu_pd(lanes + j * stride + base + s);
      const __m128d sum = _mm_add_pd(load, _mm_set1_pd(add[j]));
      ok = _mm_and_pd(ok, _mm_cmple_pd(sum, thrv));
      // Group-level early exit, mirroring the scalar kernel's per-slot
      // dimension break: once no slot in the group can fit, the
      // remaining dimensions cannot set a bit, so skip them. Crucial
      // when one hot dimension rejects almost every bin.
      bits = _mm_movemask_pd(ok);
      if (bits == 0) break;
    }
    mask |= static_cast<std::uint64_t>(bits) << s;
  }
  return mask;
}

// Compiled for AVX2 via the function target attribute so the rest of the
// translation unit keeps the portable baseline; selected at runtime only
// when the CPU reports the feature. _CMP_LE_OQ is the ordered quiet <=,
// the exact vector counterpart of the scalar predicate.
__attribute__((target("avx2"))) std::uint64_t fit_mask_avx2(
    const double* lanes, std::size_t dim, std::size_t stride,
    std::size_t base, std::size_t count, const double* add, double thr) {
  std::uint64_t mask = 0;
  const __m256d thrv = _mm256_set1_pd(thr);
  for (std::size_t s = 0; s < count; s += 4) {
    __m256d ok = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    int bits = 0xF;
    for (std::size_t j = 0; j < dim; ++j) {
      const __m256d load = _mm256_loadu_pd(lanes + j * stride + base + s);
      const __m256d sum = _mm256_add_pd(load, _mm256_set1_pd(add[j]));
      ok = _mm256_and_pd(ok, _mm256_cmp_pd(sum, thrv, _CMP_LE_OQ));
      // Group-level early exit (see fit_mask_sse2): a dead group cannot
      // come back, so stop testing its remaining dimensions.
      bits = _mm256_movemask_pd(ok);
      if (bits == 0) break;
    }
    mask |= static_cast<std::uint64_t>(bits) << s;
  }
  return mask;
}

/// Finishes the few slots in `mask` that survived dimension 0 with the
/// scalar predicate over the remaining dimensions.
std::uint64_t finish_scalar(const double* lanes, std::size_t dim,
                            std::size_t stride, std::size_t base,
                            const double* add, double thr,
                            std::uint64_t mask) {
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const auto s = static_cast<std::size_t>(std::countr_zero(m));
    for (std::size_t j = 1; j < dim; ++j) {
      if (!fits_under_threshold(lanes[j * stride + base + s] + add[j], thr)) {
        mask &= ~(std::uint64_t{1} << s);
        break;
      }
    }
  }
  return mask;
}

// Dimension-outer: one step tests one dimension across the whole chunk,
// 8 slots per _CMP_LE_OQ compare, each group's compare masked by what
// survived the earlier dimensions, and the chunk is left as soon as no
// slot survives. A per-group exit in every dimension, as in the kernels
// above, is a branch the dense tables of the paper's Sec. 7 (~950 open
// bins, a handful fitting) mispredict on most groups; here a dead group
// costs a masked compare instead, until the chunk dies. The group loop is
// unrolled for a fixed group count, so every group's survivors stay in a
// mask register. When dimension 0 leaves at most two slots alive, they
// finish with the scalar predicate instead: one tight dimension must not
// keep every group of the chunk in the loop for all d dimensions.
template <std::size_t kGroups>
__attribute__((target("avx512f,popcnt"))) std::uint64_t fit_mask_avx512_n(
    const double* lanes, std::size_t dim, std::size_t stride,
    std::size_t base, const double* add, double thr) {
  const __m512d thrv = _mm512_set1_pd(thr);
  __mmask8 live[kGroups];
  std::uint64_t first = 0;  // dimension 0's survivors, all groups
  const __m512d add0 = _mm512_set1_pd(add[0]);
#pragma GCC unroll 8
  for (std::size_t g = 0; g < kGroups; ++g) {
    live[g] = _mm512_cmp_pd_mask(
        _mm512_add_pd(_mm512_loadu_pd(lanes + base + 8 * g), add0), thrv,
        _CMP_LE_OQ);
    first |= std::uint64_t{live[g]} << (8 * g);
  }
  if (first == 0) return 0;
  if (std::popcount(first) <= 2) {
    return finish_scalar(lanes, dim, stride, base, add, thr, first);
  }
  for (std::size_t j = 1; j < dim; ++j) {
    const double* row = lanes + j * stride + base;
    const __m512d addv = _mm512_set1_pd(add[j]);
    unsigned any = 0;
#pragma GCC unroll 8
    for (std::size_t g = 0; g < kGroups; ++g) {
      live[g] = _mm512_mask_cmp_pd_mask(
          live[g], _mm512_add_pd(_mm512_loadu_pd(row + 8 * g), addv), thrv,
          _CMP_LE_OQ);
      any |= live[g];
    }
    if (any == 0) return 0;
  }
  std::uint64_t mask = 0;
  for (std::size_t g = 0; g < kGroups; ++g) {
    mask |= std::uint64_t{live[g]} << (8 * g);
  }
  return mask;
}

__attribute__((target("avx512f,popcnt"))) std::uint64_t fit_mask_avx512(
    const double* lanes, std::size_t dim, std::size_t stride,
    std::size_t base, std::size_t count, const double* add, double thr) {
  switch (count / 8) {
    case 1: return fit_mask_avx512_n<1>(lanes, dim, stride, base, add, thr);
    case 2: return fit_mask_avx512_n<2>(lanes, dim, stride, base, add, thr);
    case 3: return fit_mask_avx512_n<3>(lanes, dim, stride, base, add, thr);
    case 4: return fit_mask_avx512_n<4>(lanes, dim, stride, base, add, thr);
    case 5: return fit_mask_avx512_n<5>(lanes, dim, stride, base, add, thr);
    case 6: return fit_mask_avx512_n<6>(lanes, dim, stride, base, add, thr);
    case 7: return fit_mask_avx512_n<7>(lanes, dim, stride, base, add, thr);
    default: return fit_mask_avx512_n<8>(lanes, dim, stride, base, add, thr);
  }
}

#endif  // DVBP_SIMD_X86

}  // namespace

std::span<const FitKernel> detail::fit_kernels() noexcept {
  // Function-local, so the CPU is queried at first use, not during static
  // initialization.
  static const FitKernel kernels[] = {
      {"scalar", fit_mask_scalar, true},
#if DVBP_SIMD_X86
      {"sse2", fit_mask_sse2, true},
      {"avx2", fit_mask_avx2, __builtin_cpu_supports("avx2") != 0},
      {"avx512", fit_mask_avx512, __builtin_cpu_supports("avx512f") != 0},
#endif
  };
  return kernels;
}

namespace {

/// The widest kernel this CPU supports.
const FitKernel& kernel() {
  static const FitKernel* const chosen = [] {
    const FitKernel* best = nullptr;
    for (const FitKernel& k : detail::fit_kernels()) {
      if (k.supported) best = &k;
    }
    return best;
  }();
  return *chosen;
}

}  // namespace

const char* OpenBinTable::active_kernel() noexcept { return kernel().name; }

void OpenBinTable::ensure_capacity(std::size_t want_slots) {
  if (want_slots <= stride_) return;
  std::size_t new_stride = std::max<std::size_t>(stride_ * 2, kChunkSlots);
  while (new_stride < want_slots) new_stride *= 2;
  // Seven spare doubles let the lanes start on a 64-byte boundary, so an
  // 8-slot group is one cache line and one aligned AVX-512 load.
  std::vector<double> grown(dim_ * new_stride + 7, kPoison);
  const auto address = reinterpret_cast<std::uintptr_t>(grown.data());
  const std::size_t offset = (64 - address % 64) % 64 / sizeof(double);
  if (size_ > 0) {  // on the first growth lanes_ is empty and lane(j) null
    for (std::size_t j = 0; j < dim_; ++j) {
      std::memcpy(grown.data() + offset + j * new_stride, lane(j),
                  size_ * sizeof(double));
    }
  }
  lanes_.swap(grown);
  offset_ = offset;
  stride_ = new_stride;
}

void OpenBinTable::push_back_zero() {
  ensure_capacity(size_ + 1);
  for (std::size_t j = 0; j < dim_; ++j) mutable_lane(j)[size_] = 0.0;
  ++size_;
}

void OpenBinTable::push_back_raw(const double* load) {
  ensure_capacity(size_ + 1);
  for (std::size_t j = 0; j < dim_; ++j) mutable_lane(j)[size_] = load[j];
  ++size_;
}

void OpenBinTable::add(std::size_t slot, const double* add) {
  for (std::size_t j = 0; j < dim_; ++j) mutable_lane(j)[slot] += add[j];
}

void OpenBinTable::sub_clamped(std::size_t slot, const double* sub) {
  for (std::size_t j = 0; j < dim_; ++j) {
    double* entry = mutable_lane(j) + slot;
    *entry -= sub[j];
    *entry = std::max(*entry, 0.0);
  }
}

void OpenBinTable::make_hole(std::size_t slot) {
  for (std::size_t j = 0; j < dim_; ++j) mutable_lane(j)[slot] = kPoison;
}

void OpenBinTable::move_slot(std::size_t from, std::size_t to) {
  for (std::size_t j = 0; j < dim_; ++j) {
    mutable_lane(j)[to] = lane(j)[from];
  }
}

void OpenBinTable::truncate(std::size_t size) {
  for (std::size_t j = 0; j < dim_; ++j) {
    std::fill(mutable_lane(j) + size, mutable_lane(j) + size_, kPoison);
  }
  size_ = size;
}

bool OpenBinTable::fits(std::size_t slot, const double* add) const {
  for (std::size_t j = 0; j < dim_; ++j) {
    if (!fits_under_threshold(lane(j)[slot] + add[j], threshold_)) {
      return false;
    }
  }
  return true;
}

namespace {
/// Rounds a chunk's slot count up to the SIMD width; the extra slots are
/// poisoned padding (the stride is a multiple of the width), so they can
/// be tested but never fit.
constexpr std::size_t padded_count(std::size_t want) {
  return (want + OpenBinTable::kSimdWidth - 1) &
         ~(OpenBinTable::kSimdWidth - 1);
}
}  // namespace

std::size_t OpenBinTable::find_first_fit(const double* add) const {
  const FitKernel& k = kernel();
  for (std::size_t base = 0; base < size_; base += kChunkSlots) {
    const std::size_t want = std::min(kChunkSlots, size_ - base);
    const std::uint64_t m = k.fn(lane(0), dim_, stride_, base,
                                 padded_count(want), add, threshold_);
    if (m != 0) return base + static_cast<std::size_t>(std::countr_zero(m));
  }
  return npos;
}

std::size_t OpenBinTable::find_last_fit(const double* add) const {
  if (size_ == 0) return npos;
  const FitKernel& k = kernel();
  std::size_t base = ((size_ - 1) / kChunkSlots) * kChunkSlots;
  for (;;) {
    const std::size_t want = std::min(kChunkSlots, size_ - base);
    const std::uint64_t m = k.fn(lane(0), dim_, stride_, base,
                                 padded_count(want), add, threshold_);
    if (m != 0) {
      return base + (63 - static_cast<std::size_t>(std::countl_zero(m)));
    }
    if (base == 0) return npos;
    base -= kChunkSlots;
  }
}

void OpenBinTable::collect_fitting(
    const double* add, std::vector<std::uint32_t>& out_slots) const {
  const FitKernel& k = kernel();
  for (std::size_t base = 0; base < size_; base += kChunkSlots) {
    const std::size_t want = std::min(kChunkSlots, size_ - base);
    std::uint64_t m = k.fn(lane(0), dim_, stride_, base,
                           padded_count(want), add, threshold_);
    while (m != 0) {
      const std::size_t s = static_cast<std::size_t>(std::countr_zero(m));
      out_slots.push_back(static_cast<std::uint32_t>(base + s));
      m &= m - 1;
    }
  }
}

double OpenBinTable::measure_slot(std::size_t slot, int measure) const {
  // Mirrors measure_load() on the owning bin's RVec operation for
  // operation: same accumulation order over dimensions, same std::pow
  // calls for L2, so the scalarized load is bit-identical to the AoS
  // path's and Best/Worst Fit comparisons cannot diverge.
  switch (measure) {
    case 0: {  // LoadMeasure::kLinf -- RVec::linf()
      double m = 0.0;
      for (std::size_t j = 0; j < dim_; ++j) m = std::max(m, lane(j)[slot]);
      return m;
    }
    case 1: {  // LoadMeasure::kL1 -- RVec::l1()
      double s = 0.0;
      for (std::size_t j = 0; j < dim_; ++j) s += lane(j)[slot];
      return s;
    }
    default: {  // LoadMeasure::kL2 -- RVec::lp(2.0)
      double s = 0.0;
      for (std::size_t j = 0; j < dim_; ++j) {
        s += std::pow(lane(j)[slot], 2.0);
      }
      return std::pow(s, 1.0 / 2.0);
    }
  }
}

std::size_t OpenBinTable::find_best_fit(const double* add,
                                        int measure) const {
  const FitKernel& k = kernel();
  std::size_t best = npos;
  double best_w = 0.0;
  for (std::size_t base = 0; base < size_; base += kChunkSlots) {
    const std::size_t want = std::min(kChunkSlots, size_ - base);
    std::uint64_t m = k.fn(lane(0), dim_, stride_, base,
                           padded_count(want), add, threshold_);
    while (m != 0) {
      const std::size_t slot =
          base + static_cast<std::size_t>(std::countr_zero(m));
      const double w = measure_slot(slot, measure);
      // Strict > over ascending slots = earliest-opened wins ties,
      // exactly like BestFitPolicy::choose over the fitting list.
      if (best == npos || w > best_w) {
        best = slot;
        best_w = w;
      }
      m &= m - 1;
    }
  }
  return best;
}

std::size_t OpenBinTable::find_worst_fit(const double* add,
                                         int measure) const {
  const FitKernel& k = kernel();
  std::size_t best = npos;
  double best_w = 0.0;
  for (std::size_t base = 0; base < size_; base += kChunkSlots) {
    const std::size_t want = std::min(kChunkSlots, size_ - base);
    std::uint64_t m = k.fn(lane(0), dim_, stride_, base,
                           padded_count(want), add, threshold_);
    while (m != 0) {
      const std::size_t slot =
          base + static_cast<std::size_t>(std::countr_zero(m));
      const double w = measure_slot(slot, measure);
      if (best == npos || w < best_w) {
        best = slot;
        best_w = w;
      }
      m &= m - 1;
    }
  }
  return best;
}

}  // namespace dvbp

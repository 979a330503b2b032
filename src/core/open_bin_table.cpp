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
constexpr std::uint8_t kPoisonByte = 255;

using detail::FitKernel;
using detail::kChunkSlots;

// The semantics reference for every kernel below (see fit_kernels.hpp),
// and the only kernel under -DDVBP_DISABLE_SIMD. Every kernel goes
// dimension by dimension across the whole chunk and leaves it once no slot
// survives.
std::uint64_t fit_mask_scalar(const std::uint8_t* bytes, std::size_t dim,
                              std::size_t stride, std::size_t base,
                              const std::uint8_t* bound) {
  std::uint64_t mask = ~std::uint64_t{0};
  for (std::size_t j = 0; j < dim && mask != 0; ++j) {
    std::uint64_t pass = 0;
    for (std::size_t s = 0; s < kChunkSlots; ++s) {
      if (bytes[j * stride + base + s] <= bound[j]) {
        pass |= std::uint64_t{1} << s;
      }
    }
    mask &= pass;
  }
  return mask;
}

#if DVBP_SIMD_X86

// x86 has no unsigned byte <= below AVX-512, so SSE2 and AVX2 test
// min(v, bound) == v.

// SSE2 is part of the x86-64 baseline; no target attribute needed.
std::uint64_t fit_mask_sse2(const std::uint8_t* bytes, std::size_t dim,
                            std::size_t stride, std::size_t base,
                            const std::uint8_t* bound) {
  std::uint64_t mask = ~std::uint64_t{0};
  for (std::size_t j = 0; j < dim && mask != 0; ++j) {
    const std::uint8_t* row = bytes + j * stride + base;
    const __m128i b = _mm_set1_epi8(static_cast<char>(bound[j]));
    std::uint64_t pass = 0;
    for (std::size_t g = 0; g < kChunkSlots; g += 16) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + g));
      const auto bits = static_cast<std::uint32_t>(
          _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_min_epu8(v, b), v)));
      pass |= std::uint64_t{bits} << g;
    }
    mask &= pass;
  }
  return mask;
}

// Compiled for AVX2 via the function target attribute so the rest of the
// translation unit keeps the portable baseline; selected at runtime only
// when the CPU reports the feature.
__attribute__((target("avx2"))) std::uint64_t fit_mask_avx2(
    const std::uint8_t* bytes, std::size_t dim, std::size_t stride,
    std::size_t base, const std::uint8_t* bound) {
  std::uint64_t mask = ~std::uint64_t{0};
  for (std::size_t j = 0; j < dim && mask != 0; ++j) {
    const std::uint8_t* row = bytes + j * stride + base;
    const __m256i b = _mm256_set1_epi8(static_cast<char>(bound[j]));
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 32));
    const auto pass_lo = static_cast<std::uint32_t>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi8(_mm256_min_epu8(lo, b), lo)));
    const auto pass_hi = static_cast<std::uint32_t>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi8(_mm256_min_epu8(hi, b), hi)));
    mask &= std::uint64_t{pass_lo} | std::uint64_t{pass_hi} << 32;
  }
  return mask;
}

// One masked unsigned compare tests the whole chunk in one dimension.
__attribute__((target("avx512f,avx512bw"))) std::uint64_t fit_mask_avx512(
    const std::uint8_t* bytes, std::size_t dim, std::size_t stride,
    std::size_t base, const std::uint8_t* bound) {
  __mmask64 mask = ~__mmask64{0};
  for (std::size_t j = 0; j < dim && mask != 0; ++j) {
    const __m512i v = _mm512_loadu_si512(bytes + j * stride + base);
    mask = _mm512_mask_cmple_epu8_mask(
        mask, v, _mm512_set1_epi8(static_cast<char>(bound[j])));
  }
  return mask;
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
      {"avx512", fit_mask_avx512,
       __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512bw") != 0},
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
  if (want_slots <= slots_) return;
  std::size_t new_slots = std::max<std::size_t>(slots_ * 2, kChunkSlots);
  while (new_slots < want_slots) new_slots *= 2;
  const std::size_t pitch = new_slots + kLaneSkew;
  const std::size_t bytes_pitch = new_slots + kByteSkew;
  // Spare entries let each lane start on a 64-byte boundary, so an 8-slot
  // group of doubles and a 64-slot chunk of bytes are one cache line each.
  std::vector<double> lanes(dim_ * pitch + 7, kPoison);
  std::vector<std::uint8_t> bytes(dim_ * bytes_pitch + 63, kPoisonByte);
  const auto misalign = [](const void* p) {
    return (64 - reinterpret_cast<std::uintptr_t>(p) % 64) % 64;
  };
  const std::size_t offset = misalign(lanes.data()) / sizeof(double);
  const std::size_t byte_offset = misalign(bytes.data());
  for (std::size_t j = 0; j < dim_ && size_ > 0; ++j) {
    std::memcpy(lanes.data() + offset + j * pitch, lane(j),
                size_ * sizeof(double));
    std::memcpy(bytes.data() + byte_offset + j * bytes_pitch, byte_lane(j),
                size_);
  }
  lanes_.swap(lanes);
  bytes_.swap(bytes);
  offset_ = offset;
  byte_offset_ = byte_offset;
  slots_ = new_slots;
}

// Sets each dimension j of `slot` to value(j, old load), and its byte to
// the byte of that same value. The members are read into locals first: a
// byte store may alias them, so the loop would otherwise reload each one
// per dimension.
template <typename Value>
void OpenBinTable::set_loads(std::size_t slot, Value value) {
  double* load = mutable_lane(0) + slot;
  std::uint8_t* byte = byte_lane(0) + slot;
  const std::size_t dim = dim_;
  const std::size_t pitch = lane_pitch();
  const std::size_t bytes_pitch = byte_pitch();
  const double capacity = capacity_;
  const double scale = scale_;
  for (std::size_t j = 0; j < dim; ++j) {
    const double v = value(j, load[j * pitch]);
    load[j * pitch] = v;
    byte[j * bytes_pitch] = detail::load_byte(v, capacity, scale);
  }
}

void OpenBinTable::push_back_zero() {
  ensure_capacity(size_ + 1);
  set_loads(size_, [](std::size_t, double) { return 0.0; });
  ++size_;
}

void OpenBinTable::push_back_raw(const double* load) {
  ensure_capacity(size_ + 1);
  set_loads(size_, [&](std::size_t j, double) { return load[j]; });
  ++size_;
}

void OpenBinTable::add(std::size_t slot, const double* add) {
  set_loads(slot, [&](std::size_t j, double old) { return old + add[j]; });
}

void OpenBinTable::sub_clamped(std::size_t slot, const double* sub) {
  set_loads(slot, [&](std::size_t j, double old) {
    return std::max(old - sub[j], 0.0);
  });
}

void OpenBinTable::make_hole(std::size_t slot) {
  for (std::size_t j = 0; j < dim_; ++j) {
    mutable_lane(j)[slot] = kPoison;
    byte_lane(j)[slot] = kPoisonByte;
  }
}

void OpenBinTable::move_slot(std::size_t from, std::size_t to) {
  for (std::size_t j = 0; j < dim_; ++j) {
    mutable_lane(j)[to] = lane(j)[from];
    byte_lane(j)[to] = byte_lane(j)[from];
  }
}

void OpenBinTable::truncate(std::size_t size) {
  for (std::size_t j = 0; j < dim_; ++j) {
    std::fill(mutable_lane(j) + size, mutable_lane(j) + size_, kPoison);
    std::fill(byte_lane(j) + size, byte_lane(j) + size_, kPoisonByte);
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

void OpenBinTable::set_bound(const double* add) const {
  // Locals, as in set_loads(): the byte stores may alias the members.
  std::uint8_t* bound = bound_.data();
  const std::size_t dim = dim_;
  const double threshold = threshold_;
  const double capacity = capacity_;
  const double scale = scale_;
  for (std::size_t j = 0; j < dim; ++j) {
    bound[j] = detail::fit_bound(add[j], threshold, capacity, scale);
  }
}

std::uint64_t OpenBinTable::candidates(std::size_t base) const {
  return kernel().fn(bytes_.data() + byte_offset_, dim_, byte_pitch(), base,
                     bound_.data());
}

// A candidate past size() is padding, which the exact test rejects.
template <typename Visit>
void OpenBinTable::for_each_fitting(const double* add, Visit visit) const {
  set_bound(add);
  for (std::size_t base = 0; base < size_; base += kChunkSlots) {
    for (std::uint64_t m = candidates(base); m != 0; m &= m - 1) {
      const std::size_t slot =
          base + static_cast<std::size_t>(std::countr_zero(m));
      if (fits(slot, add) && !visit(slot)) return;
    }
  }
}

std::size_t OpenBinTable::find_first_fit(const double* add) const {
  std::size_t first = npos;
  for_each_fitting(add, [&](std::size_t slot) {
    first = slot;
    return false;
  });
  return first;
}

std::size_t OpenBinTable::find_last_fit(const double* add) const {
  if (size_ == 0) return npos;
  set_bound(add);
  for (std::size_t base = (size_ - 1) / kChunkSlots * kChunkSlots;;
       base -= kChunkSlots) {
    for (std::uint64_t m = candidates(base); m != 0;) {
      const std::size_t s = 63 - static_cast<std::size_t>(std::countl_zero(m));
      if (fits(base + s, add)) return base + s;
      m &= ~(std::uint64_t{1} << s);
    }
    if (base == 0) return npos;
  }
}

void OpenBinTable::collect_fitting(
    const double* add, std::vector<std::uint32_t>& out_slots) const {
  for_each_fitting(add, [&](std::size_t slot) {
    out_slots.push_back(static_cast<std::uint32_t>(slot));
    return true;
  });
}

std::size_t OpenBinTable::count_fitting(const double* add) const {
  std::size_t count = 0;
  for_each_fitting(add, [&](std::size_t) {
    ++count;
    return true;
  });
  return count;
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
  std::size_t best = npos;
  double best_w = 0.0;
  for_each_fitting(add, [&](std::size_t slot) {
    const double w = measure_slot(slot, measure);
    // Strict > over ascending slots = earliest-opened wins ties.
    if (best == npos || w > best_w) {
      best = slot;
      best_w = w;
    }
    return true;
  });
  return best;
}

std::size_t OpenBinTable::find_worst_fit(const double* add,
                                         int measure) const {
  std::size_t worst = npos;
  double worst_w = 0.0;
  for_each_fitting(add, [&](std::size_t slot) {
    const double w = measure_slot(slot, measure);
    if (worst == npos || w < worst_w) {
      worst = slot;
      worst_w = w;
    }
    return true;
  });
  return worst;
}

}  // namespace dvbp

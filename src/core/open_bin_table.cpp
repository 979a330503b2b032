#include "core/open_bin_table.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

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
// and the only kernel under -DDVBP_DISABLE_SIMD: chunk by chunk, dimension
// by dimension, leaving a chunk once no slot survives.
void fit_masks_scalar(const std::uint8_t* bytes, std::size_t dim,
                      std::size_t stride, std::size_t base,
                      std::size_t chunks, const std::uint8_t* bound,
                      std::uint64_t* masks) {
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint8_t* row = bytes + base + c * kChunkSlots;
    std::uint64_t mask = ~std::uint64_t{0};
    for (std::size_t j = 0; j < dim && mask != 0; ++j) {
      std::uint64_t pass = 0;
      for (std::size_t s = 0; s < kChunkSlots; ++s) {
        if (row[j * stride + s] <= bound[j]) pass |= std::uint64_t{1} << s;
      }
      mask &= pass;
    }
    masks[c] = mask;
  }
}

detail::FitMaskFn scalar_masks(std::size_t) noexcept {
  return fit_masks_scalar;
}

#if DVBP_SIMD_X86

// Each SIMD kernel is one template per ISA, Block<D, kLongD>: the register
// path of fit_kernels.hpp for d = D, and with kLongD the long-d path, whose
// first kRegisterDims dimensions run the same way. block_masks() picks the
// body for a table's d. x86 has no unsigned byte <= below AVX-512, so SSE2
// and AVX2 test min(v, bound) == v.

template <template <std::size_t, bool> class Block, std::size_t... D>
constexpr std::array<detail::FitMaskFn, sizeof...(D) + 1> block_bodies(
    std::index_sequence<D...>) {
  return {&Block<D + 1, false>::run...,
          &Block<detail::kRegisterDims, true>::run};
}

template <template <std::size_t, bool> class Block>
detail::FitMaskFn block_masks(std::size_t dim) noexcept {
  static constexpr auto bodies = block_bodies<Block>(
      std::make_index_sequence<detail::kRegisterDims>{});
  // With no dimension every slot passes, which the reference says too.
  return dim == 0 ? fit_masks_scalar
                  : bodies[std::min(dim, detail::kRegisterDims + 1) - 1];
}

// SSE2 is part of the x86-64 baseline; no target attribute needed.
template <std::size_t D, bool kLongD>
struct Sse2Block {
  static std::uint64_t pass(const std::uint8_t* row, __m128i b) {
    std::uint64_t bits = 0;
    for (std::size_t g = 0; g < kChunkSlots; g += 16) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + g));
      bits |= std::uint64_t{static_cast<std::uint32_t>(
                  _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_min_epu8(v, b), v)))}
              << g;
    }
    return bits;
  }
  static void run(const std::uint8_t* bytes, std::size_t dim,
                  std::size_t stride, std::size_t base, std::size_t chunks,
                  const std::uint8_t* bound, std::uint64_t* masks) {
    __m128i b[D];
    for (std::size_t j = 0; j < D; ++j) {
      b[j] = _mm_set1_epi8(static_cast<char>(bound[j]));
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::uint8_t* row = bytes + base + c * kChunkSlots;
      std::uint64_t mask = pass(row, b[0]);
      if (mask != 0) {
        for (std::size_t j = 1; j < D; ++j) {
          mask &= pass(row + j * stride, b[j]);
        }
      }
      if constexpr (kLongD) {
        for (std::size_t j = D; j < dim && mask != 0; ++j) {
          mask &= pass(row + j * stride,
                       _mm_set1_epi8(static_cast<char>(bound[j])));
        }
      }
      masks[c] = mask;
    }
  }
};

// Compiled for AVX2 via the function target attribute so the rest of the
// translation unit keeps the portable baseline; selected at runtime only
// when the CPU reports the feature.
template <std::size_t D, bool kLongD>
struct Avx2Block {
  __attribute__((target("avx2"), always_inline)) static std::uint64_t pass(
      const std::uint8_t* row, __m256i b) {
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 32));
    const auto pass_lo = static_cast<std::uint32_t>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi8(_mm256_min_epu8(lo, b), lo)));
    const auto pass_hi = static_cast<std::uint32_t>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi8(_mm256_min_epu8(hi, b), hi)));
    return std::uint64_t{pass_lo} | std::uint64_t{pass_hi} << 32;
  }
  __attribute__((target("avx2"))) static void run(
      const std::uint8_t* bytes, std::size_t dim, std::size_t stride,
      std::size_t base, std::size_t chunks, const std::uint8_t* bound,
      std::uint64_t* masks) {
    __m256i b[D];
    for (std::size_t j = 0; j < D; ++j) {
      b[j] = _mm256_set1_epi8(static_cast<char>(bound[j]));
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::uint8_t* row = bytes + base + c * kChunkSlots;
      std::uint64_t mask = pass(row, b[0]);
      if (mask != 0) {
        for (std::size_t j = 1; j < D; ++j) {
          mask &= pass(row + j * stride, b[j]);
        }
      }
      if constexpr (kLongD) {
        for (std::size_t j = D; j < dim && mask != 0; ++j) {
          mask &= pass(row + j * stride,
                       _mm256_set1_epi8(static_cast<char>(bound[j])));
        }
      }
      masks[c] = mask;
    }
  }
};

// One masked unsigned compare tests a whole chunk in one dimension.
template <std::size_t D, bool kLongD>
struct Avx512Block {
  __attribute__((target("avx512f,avx512bw"))) static void run(
      const std::uint8_t* bytes, std::size_t dim, std::size_t stride,
      std::size_t base, std::size_t chunks, const std::uint8_t* bound,
      std::uint64_t* masks) {
    __m512i b[D];
    for (std::size_t j = 0; j < D; ++j) {
      b[j] = _mm512_set1_epi8(static_cast<char>(bound[j]));
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::uint8_t* row = bytes + base + c * kChunkSlots;
      __mmask64 mask = _mm512_cmple_epu8_mask(_mm512_loadu_si512(row), b[0]);
      if (mask != 0) {
        for (std::size_t j = 1; j < D; ++j) {
          mask = _mm512_mask_cmple_epu8_mask(
              mask, _mm512_loadu_si512(row + j * stride), b[j]);
        }
      }
      if constexpr (kLongD) {
        for (std::size_t j = D; j < dim && mask != 0; ++j) {
          mask = _mm512_mask_cmple_epu8_mask(
              mask, _mm512_loadu_si512(row + j * stride),
              _mm512_set1_epi8(static_cast<char>(bound[j])));
        }
      }
      masks[c] = mask;
    }
  }
};

#endif  // DVBP_SIMD_X86

}  // namespace

std::span<const FitKernel> detail::fit_kernels() noexcept {
  // Function-local, so the CPU is queried at first use, not during static
  // initialization.
  static const FitKernel kernels[] = {
      {"scalar", scalar_masks, true},
#if DVBP_SIMD_X86
      {"sse2", block_masks<Sse2Block>, true},
      {"avx2", block_masks<Avx2Block>, __builtin_cpu_supports("avx2") != 0},
      {"avx512", block_masks<Avx512Block>,
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

OpenBinTable::OpenBinTable(std::size_t dim, double capacity)
    : dim_(dim),
      capacity_(capacity),
      threshold_(fits_threshold(capacity)),
      scale_(255.0 / capacity),
      fill_masks_(kernel().masks(dim)),
      bound_(dim) {}

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

RVec OpenBinTable::load(std::size_t slot) const {
  RVec out(dim_);
  for (std::size_t j = 0; j < dim_; ++j) out[j] = lane(j)[slot];
  return out;
}

// Blocks of `block` chunks, doubling up to kBlockChunks: a scan that may
// stop early starts at one chunk, so a fit in the first chunk costs one.
// A candidate past size() is padding, which the exact test rejects.
template <typename Visit>
void OpenBinTable::for_each_candidate(const double* add, std::size_t block,
                                      Visit&& visit) const {
  set_bound(add);
  std::uint64_t masks[kBlockChunks];
  const std::size_t chunks = (size_ + kChunkSlots - 1) / kChunkSlots;
  for (std::size_t first = 0; first < chunks;
       first += block, block = std::min(2 * block, kBlockChunks)) {
    const std::size_t n = std::min(block, chunks - first);
    scan(first * kChunkSlots, n, masks);
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t base = (first + c) * kChunkSlots;
      for (std::uint64_t m = masks[c]; m != 0; m &= m - 1) {
        if (!visit(base + static_cast<std::size_t>(std::countr_zero(m)))) {
          return;
        }
      }
    }
  }
}

std::size_t OpenBinTable::find_first_fit(const double* add) const {
  std::size_t first = npos;
  for_each_candidate(add, 1, [&](std::size_t slot) {
    if (!fits(slot, add)) return true;
    first = slot;
    return false;
  });
  return first;
}

// The blocks of for_each_candidate(), from the last chunk down.
std::size_t OpenBinTable::find_last_fit(const double* add) const {
  set_bound(add);
  std::uint64_t masks[kBlockChunks];
  std::size_t end = (size_ + kChunkSlots - 1) / kChunkSlots;
  for (std::size_t block = 1; end > 0;
       block = std::min(2 * block, kBlockChunks)) {
    const std::size_t n = std::min(block, end);
    end -= n;
    scan(end * kChunkSlots, n, masks);
    for (std::size_t c = n; c-- > 0;) {
      const std::size_t base = (end + c) * kChunkSlots;
      for (std::uint64_t m = masks[c]; m != 0;) {
        const std::size_t s =
            63 - static_cast<std::size_t>(std::countl_zero(m));
        if (fits(base + s, add)) return base + s;
        m &= ~(std::uint64_t{1} << s);
      }
    }
  }
  return npos;
}

void OpenBinTable::collect_fitting(
    const double* add, std::vector<std::uint32_t>& out_slots) const {
  for_each_candidate(add, kBlockChunks, [&](std::size_t slot) {
    if (fits(slot, add)) out_slots.push_back(static_cast<std::uint32_t>(slot));
    return true;
  });
}

std::size_t OpenBinTable::count_fitting(const double* add) const {
  std::size_t count = 0;
  for_each_candidate(add, kBlockChunks, [&](std::size_t slot) {
    count += fits(slot, add) ? 1 : 0;
    return true;
  });
  return count;
}

// One walk over the slot's lanes makes the exact test of fits() and the
// load measure together. The measure mirrors measure_load() on load(slot)
// operation for operation: same accumulation order over dimensions, same
// std::pow calls for L2, so Best/Worst Fit rank a slot by the same value
// as MinExtensionFit's tie-break does.
template <int kMeasure>
bool OpenBinTable::fits_measured(std::size_t slot, const double* add,
                                 double& measure) const {
  const double* load = lane(0) + slot;
  const std::size_t pitch = lane_pitch();
  double m = 0.0;
  for (std::size_t j = 0; j < dim_; ++j) {
    const double x = load[j * pitch];
    if (!fits_under_threshold(x + add[j], threshold_)) return false;
    if constexpr (kMeasure == 0) {  // LoadMeasure::kLinf -- RVec::linf()
      m = std::max(m, x);
    } else if constexpr (kMeasure == 1) {  // LoadMeasure::kL1 -- RVec::l1()
      m += x;
    } else {  // LoadMeasure::kL2 -- RVec::lp(2.0)
      m += std::pow(x, 2.0);
    }
  }
  measure = kMeasure == 2 ? std::pow(m, 1.0 / 2.0) : m;
  return true;
}

// The fitting slot whose measure no other beats (`better(w, kept)`); on a
// tie the earliest slot stays.
template <int kMeasure, typename Better>
std::size_t OpenBinTable::find_extreme_fit(const double* add,
                                           Better better) const {
  std::size_t found = npos;
  double found_w = 0.0;
  for_each_candidate(add, kBlockChunks, [&](std::size_t slot) {
    double w;
    if (fits_measured<kMeasure>(slot, add, w) &&
        (found == npos || better(w, found_w))) {
      found = slot;
      found_w = w;
    }
    return true;
  });
  return found;
}

std::size_t OpenBinTable::find_best_fit(const double* add,
                                        int measure) const {
  // Strict > over ascending slots = earliest-opened wins ties.
  const std::greater<double> better;
  switch (measure) {
    case 0: return find_extreme_fit<0>(add, better);
    case 1: return find_extreme_fit<1>(add, better);
    default: return find_extreme_fit<2>(add, better);
  }
}

std::size_t OpenBinTable::find_worst_fit(const double* add,
                                         int measure) const {
  const std::less<double> better;
  switch (measure) {
    case 0: return find_extreme_fit<0>(add, better);
    case 1: return find_extreme_fit<1>(add, better);
    default: return find_extreme_fit<2>(add, better);
  }
}

}  // namespace dvbp

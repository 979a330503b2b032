// The open-bin table's load-byte prefilter (core/fit_kernels.hpp). Every
// byte kernel this CPU supports must fill, for blocks of 1 to 16 chunks,
// the masks the scalar byte reference gives chunk by chunk -- the placement
// tests only run the kernel the table dispatches to, so on an AVX-512 host
// the AVX2 and SSE2 kernels would otherwise never run at all -- in both its
// register path (d <= kRegisterDims) and its long-d path. The byte bound
// must be conservative: every slot the exact fits.hpp predicate admits is a
// candidate. A table holding the same loads must then admit exactly the
// fitting slots, wherever in its blocks they sit.
#include "core/fit_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/fits.hpp"
#include "core/open_bin_table.hpp"
#include "core/policies/best_fit.hpp"
#include "core/rvec.hpp"
#include "stats/rng.hpp"

namespace dvbp {
namespace {

using detail::FitKernel;
using detail::fit_kernels;
using detail::kChunkSlots;

constexpr double kInf = std::numeric_limits<double>::infinity();
// Slots per lane: twenty chunks, so a 16-chunk block fits at every base.
constexpr std::size_t kStride = 1280;
constexpr std::size_t kMaxBlock = 16;
constexpr std::size_t kDims[] = {1, 2, 5, 8, 9, 16, 65, 300};
constexpr double kCapacities[] = {1.0, 1.5};

/// dim lanes of kStride loads each, as the table lays them out; a hole is
/// +inf in every lane.
struct Lanes {
  explicit Lanes(std::size_t d) : dim(d), data(d * kStride, kInf) {}
  double& at(std::size_t j, std::size_t slot) {
    return data[j * kStride + slot];
  }
  double at(std::size_t j, std::size_t slot) const {
    return data[j * kStride + slot];
  }
  std::vector<double> load(std::size_t slot) const {
    std::vector<double> out(dim);
    for (std::size_t j = 0; j < dim; ++j) out[j] = at(j, slot);
    return out;
  }
  std::size_t dim;
  std::vector<double> data;
};

/// Runs one query (`add` into bins of `capacity`) over `lanes`:
///  - every supported kernel returns the scalar reference's mask, on
///    aligned and unaligned chunk bases;
///  - every slot the exact predicate admits is a candidate;
///  - an OpenBinTable with the same loads and holes collects, counts and
///    finds exactly the fitting slots.
void check_query(const Lanes& lanes, const std::vector<double>& add,
                 double capacity) {
  const std::size_t d = lanes.dim;
  const double thr = fits_threshold(capacity);
  const double scale = 255.0 / capacity;
  std::vector<std::uint8_t> bytes(d * kStride);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = detail::load_byte(lanes.data[i], capacity, scale);
  }
  std::vector<std::uint8_t> bound(d);
  for (std::size_t j = 0; j < d; ++j) {
    bound[j] = detail::fit_bound(add[j], thr, capacity, scale);
  }
  std::vector<std::uint32_t> fitting;
  for (std::size_t slot = 0; slot < kStride; ++slot) {
    if (fits_under_threshold(lanes.load(slot).data(), add.data(), d, thr)) {
      fitting.push_back(static_cast<std::uint32_t>(slot));
    }
  }

  // The reference, one chunk per call, at every chunk from each base.
  const FitKernel& reference = fit_kernels().front();
  for (std::size_t base : {0u, 64u, 100u, 128u, 192u}) {
    const std::size_t chunks = (kStride - base) / kChunkSlots;
    std::vector<std::uint64_t> want(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      reference.masks(d)(bytes.data(), d, kStride, base + c * kChunkSlots,
                         1, bound.data(), &want[c]);
    }
    for (const FitKernel& kernel : fit_kernels()) {
      if (!kernel.supported) continue;
      for (std::size_t block = 1; block <= kMaxBlock; ++block) {
        std::vector<std::uint64_t> got(block + 1, 0xDEADBEEF);
        kernel.masks(d)(bytes.data(), d, kStride, base, block, bound.data(),
                        got.data());
        for (std::size_t c = 0; c < block; ++c) {
          ASSERT_EQ(got[c], want[c]) << kernel.name << " d=" << d
                                     << " base=" << base << " block="
                                     << block << " chunk " << c;
        }
        ASSERT_EQ(got[block], 0xDEADBEEFu) << "wrote past the block";
      }
    }
    for (const std::uint32_t slot : fitting) {
      if (slot < base || slot >= base + chunks * kChunkSlots) continue;
      const std::size_t at = slot - base;
      ASSERT_TRUE((want[at / kChunkSlots] >> (at % kChunkSlots)) & 1)
          << "the byte bound drops fitting slot " << slot << " (d=" << d
          << ", capacity " << capacity << ")";
    }
  }

  OpenBinTable table(d, capacity);
  for (std::size_t slot = 0; slot < kStride; ++slot) {
    const std::vector<double> load = lanes.load(slot);
    if (load[0] == kInf) {
      table.push_back_zero();
      table.make_hole(slot);
    } else {
      table.push_back_raw(load.data());
    }
  }
  std::vector<std::uint32_t> collected;
  table.collect_fitting(add.data(), collected);
  ASSERT_EQ(collected, fitting) << "d=" << d << ", capacity " << capacity;
  EXPECT_EQ(table.count_fitting(add.data()), fitting.size());
  EXPECT_EQ(table.find_first_fit(add.data()),
            fitting.empty() ? OpenBinTable::npos : fitting.front());
  EXPECT_EQ(table.find_last_fit(add.data()),
            fitting.empty() ? OpenBinTable::npos : fitting.back());
  // Best and Worst Fit against measure_load() on each fitting slot's RVec.
  for (const LoadMeasure m :
       {LoadMeasure::kLinf, LoadMeasure::kL1, LoadMeasure::kL2}) {
    std::size_t best = OpenBinTable::npos;
    std::size_t worst = OpenBinTable::npos;
    double best_w = 0.0;
    double worst_w = 0.0;
    for (const std::uint32_t slot : fitting) {
      const std::vector<double> load = lanes.load(slot);
      RVec v(d);
      std::copy(load.begin(), load.end(), v.data());
      const double w = measure_load(v, m);
      if (best == OpenBinTable::npos || w > best_w) {
        best = slot;
        best_w = w;
      }
      if (worst == OpenBinTable::npos || w < worst_w) {
        worst = slot;
        worst_w = w;
      }
    }
    EXPECT_EQ(table.find_best_fit(add.data(), static_cast<int>(m)), best);
    EXPECT_EQ(table.find_worst_fit(add.data(), static_cast<int>(m)), worst);
  }
}

TEST(FitKernels, ScalarReferenceComesFirstAndNamesAreUnique) {
  const auto kernels = fit_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "scalar");
  EXPECT_TRUE(kernels.front().supported);
  for (std::size_t a = 0; a < kernels.size(); ++a) {
    for (std::size_t b = a + 1; b < kernels.size(); ++b) {
      EXPECT_STRNE(kernels[a].name, kernels[b].name);
    }
  }
}

TEST(FitKernels, ActiveKernelIsTheWidestTheCpuSupports) {
#if defined(DVBP_DISABLE_SIMD) || !defined(__x86_64__)
  EXPECT_STREQ(OpenBinTable::active_kernel(), "scalar");
  EXPECT_EQ(fit_kernels().size(), 1u);
#else
  const char* want = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512bw")
                         ? "avx512"
                     : __builtin_cpu_supports("avx2") ? "avx2"
                                                       : "sse2";
  EXPECT_STREQ(OpenBinTable::active_kernel(), want);
#endif
}

TEST(FitKernels, LoadBytesAreMonotoneAndTheCapacityMapsTo255) {
  for (const double capacity : kCapacities) {
    const double scale = 255.0 / capacity;
    EXPECT_EQ(detail::load_byte(0.0, capacity, scale), 0);
    EXPECT_EQ(detail::load_byte(capacity, capacity, scale), 255);
    EXPECT_EQ(detail::load_byte(kInf, capacity, scale), 255);
    EXPECT_EQ(detail::load_byte(std::nan(""), capacity, scale), 255);
    // A zero-size item lets every byte through, holes included.
    EXPECT_EQ(detail::fit_bound(0.0, fits_threshold(capacity), capacity,
                                scale),
              255);
    std::uint8_t prev = 0;
    for (int k = 0; k <= 4000; ++k) {
      const double x = capacity * k / 4000.0;
      const std::uint8_t b = detail::load_byte(x, capacity, scale);
      ASSERT_GE(b, prev) << x;
      prev = b;
    }
  }
}

TEST(FitKernels, RandomLanesWithHoles) {
  Xoshiro256pp rng(0xF17);
  for (std::size_t d : kDims) {
    for (const double capacity : kCapacities) {
      for (int trial = 0; trial < 10; ++trial) {
        Lanes lanes(d);
        for (std::size_t slot = 0; slot < kStride; ++slot) {
          if (rng.uniform() < 0.1) continue;  // a hole
          for (std::size_t j = 0; j < d; ++j) {
            lanes.at(j, slot) = rng.uniform() * capacity;
          }
        }
        // Small adds, some of them zero, leave a few survivors at d = 16.
        std::vector<double> add(d);
        for (double& a : add) {
          a = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 0.2);
        }
        check_query(lanes, add, capacity);
      }
    }
  }
}

TEST(FitKernels, SumsOnAndOneUlpAroundTheThreshold) {
  Xoshiro256pp rng(0xB0B);
  for (std::size_t d : kDims) {
    for (const double capacity : kCapacities) {
      const double thr = fits_threshold(capacity);
      const double on[] = {thr, std::nextafter(thr, 0.0), 0.5};
      const double over = std::nextafter(thr, kInf);
      for (int trial = 0; trial < 10; ++trial) {
        // Powers of two, so load = target - add is exact and load + add
        // rounds back onto the target.
        std::vector<double> add(d);
        for (double& a : add) {
          a = std::ldexp(1.0, -1 - static_cast<int>(rng.uniform_int(0, 3)));
        }
        Lanes lanes(d);
        for (std::size_t slot = 0; slot < kStride; ++slot) {
          for (std::size_t j = 0; j < d; ++j) {
            const double t = on[rng.uniform_int(0, 2)];
            lanes.at(j, slot) = t - add[j];
            ASSERT_EQ(lanes.at(j, slot) + add[j], t);
          }
          // A third of the slots miss by one ulp in one dimension.
          if (rng.uniform() < 0.3) {
            const auto j = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(d) - 1));
            lanes.at(j, slot) = over - add[j];
            ASSERT_EQ(lanes.at(j, slot) + add[j], over);
          }
        }
        check_query(lanes, add, capacity);
      }
    }
  }
}

TEST(FitKernels, AZeroSizeItemPassesEveryByteAndNoHole) {
  Xoshiro256pp rng(0x2E80);
  for (std::size_t d : kDims) {
    for (const double capacity : kCapacities) {
      Lanes lanes(d);
      for (std::size_t slot = 0; slot < kStride; ++slot) {
        if (rng.uniform() < 0.2) continue;  // a hole
        // Full bins too: a zero-size item still fits on a load of exactly
        // the capacity.
        for (std::size_t j = 0; j < d; ++j) {
          lanes.at(j, slot) = rng.uniform() < 0.3 ? capacity
                                                  : rng.uniform() * capacity;
        }
      }
      check_query(lanes, std::vector<double>(d, 0.0), capacity);
    }
  }
}

TEST(FitKernels, FewSurvivorsAfterTheFirstDimension) {
  // Dimension 0 rejects all but up to two slots in every 32; those decide
  // in later dimensions, down to the last one.
  Xoshiro256pp rng(0x5EED);
  for (std::size_t d : kDims) {
    for (int trial = 0; trial < 10; ++trial) {
      Lanes lanes(d);
      for (std::size_t slot = 0; slot < kStride; ++slot) {
        lanes.at(0, slot) = 0.95;
        for (std::size_t j = 1; j < d; ++j) lanes.at(j, slot) = 0.5;
      }
      for (std::size_t region = 0; region < kStride; region += 32) {
        const auto survivors = rng.uniform_int(0, 2);
        for (std::int64_t k = 0; k < survivors; ++k) {
          const std::size_t slot =
              region + static_cast<std::size_t>(rng.uniform_int(0, 31));
          lanes.at(0, slot) = 0.1;
          const auto j = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(d) - 1));
          if (j > 0 && rng.uniform() < 0.5) lanes.at(j, slot) = 0.95;
        }
      }
      check_query(lanes, std::vector<double>(d, 0.3), 1.0);
    }
  }
}

TEST(FitKernels, TableScansFindALoneFitAtEveryBlockEdge) {
  // 39 chunks and 17 slots, a multiple of no block. Full scans run blocks
  // of chunks [0, 16), [16, 32) and [32, 40); First Fit [0, 1), [1, 3),
  // [3, 7), [7, 15), [15, 31) and [31, 40); Last Fit the same from chunk
  // 39 down. A lone fit at the first or last slot of every chunk therefore
  // sits in the first and in the last chunk of every block.
  constexpr std::size_t kSlots = 39 * kChunkSlots + 17;
  const double thr = fits_threshold(1.0);
  const double over = std::nextafter(thr, kInf);
  for (std::size_t d : {1u, 5u, 16u, 17u, 65u}) {
    SCOPED_TRACE(d);
    const std::vector<double> add(d, 0.25);
    // Even chunks hold bins the bytes reject, odd chunks bins that pass
    // the bytes and miss by one ulp in their last dimension.
    const std::vector<double> full(d, 0.9);
    std::vector<double> near(d, 0.5);
    near[d - 1] = over - 0.25;
    ASSERT_EQ(near[d - 1] + 0.25, over);
    const std::vector<double> fit(d, 0.5);
    for (std::size_t base = 0; base < kSlots; base += kChunkSlots) {
      for (const std::size_t lone :
           {base, std::min(base + kChunkSlots, kSlots) - 1}) {
        SCOPED_TRACE(lone);
        OpenBinTable table(d);
        for (std::size_t slot = 0; slot < kSlots; ++slot) {
          table.push_back_raw(slot == lone                     ? fit.data()
                              : slot / kChunkSlots % 2 == 0 ? full.data()
                                                             : near.data());
        }
        ASSERT_EQ(table.find_first_fit(add.data()), lone);
        ASSERT_EQ(table.find_last_fit(add.data()), lone);
        std::vector<std::uint32_t> collected;
        table.collect_fitting(add.data(), collected);
        ASSERT_EQ(collected, std::vector<std::uint32_t>{
                                 static_cast<std::uint32_t>(lone)});
        ASSERT_EQ(table.count_fitting(add.data()), 1u);
        for (int m = 0; m < 3; ++m) {
          ASSERT_EQ(table.find_best_fit(add.data(), m), lone);
          ASSERT_EQ(table.find_worst_fit(add.data(), m), lone);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dvbp

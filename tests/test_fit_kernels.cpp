// Every fit-mask kernel this CPU supports against the scalar reference
// (core/fit_kernels.hpp). The placement tests only run the kernel the
// open-bin table dispatches to, so on an AVX-512 host the AVX2 and SSE2
// kernels would otherwise never run at all.
#include "core/fit_kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/fits.hpp"
#include "core/open_bin_table.hpp"
#include "stats/rng.hpp"

namespace dvbp {
namespace {

using detail::FitKernel;
using detail::fit_kernels;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kStride = 256;  // slots per lane: four chunks
constexpr std::size_t kDims[] = {1, 2, 5, 8, 9, 16};

/// dim lanes of kStride slots each, as the table lays them out.
struct Lanes {
  explicit Lanes(std::size_t d) : dim(d), data(d * kStride, kInf) {}
  double& at(std::size_t j, std::size_t slot) {
    return data[j * kStride + slot];
  }
  std::size_t dim;
  std::vector<double> data;
};

/// Runs every supported kernel over every padded count (8..64) at several
/// chunk bases and expects the scalar reference's mask, bit for bit.
void expect_kernels_agree(const Lanes& lanes, const std::vector<double>& add,
                          double thr) {
  const FitKernel& reference = fit_kernels().front();
  for (const FitKernel& kernel : fit_kernels()) {
    if (!kernel.supported) continue;
    for (std::size_t base : {0u, 64u, 136u, 192u}) {
      for (std::size_t count = OpenBinTable::kSimdWidth; count <= 64;
           count += OpenBinTable::kSimdWidth) {
        const std::uint64_t want =
            reference.fn(lanes.data.data(), lanes.dim, kStride, base, count,
                         add.data(), thr);
        const std::uint64_t got =
            kernel.fn(lanes.data.data(), lanes.dim, kStride, base, count,
                      add.data(), thr);
        ASSERT_EQ(got, want) << kernel.name << " d=" << lanes.dim
                             << " base=" << base << " count=" << count;
      }
    }
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
  const char* want = __builtin_cpu_supports("avx512f") ? "avx512"
                     : __builtin_cpu_supports("avx2") ? "avx2"
                                                       : "sse2";
  EXPECT_STREQ(OpenBinTable::active_kernel(), want);
#endif
}

TEST(FitKernels, RandomLanesWithHoles) {
  Xoshiro256pp rng(0xF17);
  for (std::size_t d : kDims) {
    for (int trial = 0; trial < 20; ++trial) {
      Lanes lanes(d);
      for (std::size_t slot = 0; slot < kStride; ++slot) {
        if (rng.uniform() < 0.1) continue;  // a hole: +inf in every lane
        for (std::size_t j = 0; j < d; ++j) lanes.at(j, slot) = rng.uniform();
      }
      // Small adds leave a few survivors even at d = 16.
      std::vector<double> add(d);
      for (double& a : add) a = rng.uniform(0.0, 0.2);
      expect_kernels_agree(lanes, add, fits_threshold(1.0));
      expect_kernels_agree(lanes, add, fits_threshold(1.5));
    }
  }
}

TEST(FitKernels, SumsOnAndOneUlpAroundTheThreshold) {
  const double thr = fits_threshold(1.0);
  const double targets[] = {thr, std::nextafter(thr, 0.0),
                            std::nextafter(thr, kInf), 0.5};
  Xoshiro256pp rng(0xB0B);
  for (std::size_t d : kDims) {
    for (int trial = 0; trial < 20; ++trial) {
      // Powers of two, so load = target - add is exact and load + add
      // rounds back onto the target.
      std::vector<double> add(d);
      for (double& a : add) {
        a = std::ldexp(1.0, -1 - static_cast<int>(rng.uniform_int(0, 3)));
      }
      Lanes lanes(d);
      for (std::size_t slot = 0; slot < kStride; ++slot) {
        for (std::size_t j = 0; j < d; ++j) {
          // Mostly on or just under the threshold, so some slots survive
          // every dimension; one ulp over a tenth of the time.
          const double u = rng.uniform();
          const double t = u < 0.1 ? targets[2]
                           : u < 0.4 ? targets[0]
                           : u < 0.7 ? targets[1]
                                     : targets[3];
          lanes.at(j, slot) = t - add[j];
          ASSERT_EQ(lanes.at(j, slot) + add[j], t);
        }
      }
      expect_kernels_agree(lanes, add, thr);
    }
  }
}

TEST(FitKernels, FewSurvivorsAfterTheFirstDimension) {
  // Dimension 0 rejects all but up to two slots in every 32; those decide
  // in later dimensions, down to the last one.
  Xoshiro256pp rng(0x5EED);
  for (std::size_t d : kDims) {
    for (int trial = 0; trial < 20; ++trial) {
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
      expect_kernels_agree(lanes, std::vector<double>(d, 0.3),
                           fits_threshold(1.0));
    }
  }
}

}  // namespace
}  // namespace dvbp

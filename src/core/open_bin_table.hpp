// OpenBinTable: the open bins' load vectors, structure-of-arrays.
//
// The table holds the one copy of every open bin's load, transposed:
// dimension j of all open bins is one contiguous lane, so the per-arrival
// scan over every open bin reads a few lanes instead of a cache line per
// bin. Beside each double it keeps one byte, a monotone floor of the load
// scaled so that the capacity maps to 255 (core/fit_kernels.hpp). A scan
// first compares those bytes against a per-query bound, 64 slots per
// AVX-512BW compare (32 with AVX2, 16 with SSE2); only the few slots that
// pass are then decided exactly.
//
// The block scan: one kernel call fills the candidate masks of a block of
// up to kBlockChunks 64-slot chunks. For d <= detail::kRegisterDims (16)
// the kernel runs its register path, a body compiled for that d that holds
// the d bound broadcasts in registers for the whole call and compares each
// chunk in every dimension with one exit test, after the first; a larger d
// runs those 16 dimensions the same way and the rest from memory. Full
// scans (Best/Worst Fit, collect_fitting, count_fitting) take blocks of
// kBlockChunks; the scans that may stop early (First Fit, and Last Fit
// from the last chunk down) take blocks of 1, 2, 4, ... chunks, so a fit
// in the first chunk they scan costs one chunk. The table picks the
// kernel's mask function for its d once, at construction; the per-query
// bound is a plain loop over the d dimensions. Best/Worst Fit make a
// survivor's exact test and its load measure in one walk over its lanes,
// with exactly the same scalar operation order as measure_load() on the
// RVec that load() returns.
//
// Bit-exactness contract (pinned by tests/golden_packings.inc and the
// -DDVBP_DISABLE_SIMD CI job): each load is one copy, changed only by
// add() and sub_clamped() -- the same IEEE-754 operations in dimension
// order on every build -- and restored from a checkpoint as raw bits, so
// a restored table decides exactly as the saved one did. One scalar
// predicate decides every slot: the fits.hpp comparison
// `load[j] + add[j] <= threshold` against the same precomputed threshold.
// The byte kernels (AVX-512, AVX2, SSE2, scalar) only prefilter. Each
// returns the scalar byte reference's candidate masks, and the byte bound
// never drops a slot the exact predicate admits, so SIMD and scalar builds
// produce the same packing, bit for bit. Holes and padding slots hold
// +inf in the lanes and 255 in the bytes: a zero-size item's bound lets
// them through the bytes, and +inf + x then fails the exact test.
//
// Slots are in opening order: slot k is the Dispatcher's slot k, whose
// BinView and BinState sit at position k of its own arrays. A closed
// bin's slot stays where it is as a hole, poisoned exactly like padding,
// so no scan admits it, and a close costs O(d) instead of shifting every
// later slot. The Dispatcher squeezes the holes out now and then with
// move_slot() and truncate(), keeping the live slots in opening order.
//
// A scan writes its byte bound into a buffer the table owns, so one
// table serves one thread at a time, like the Dispatcher that owns it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/fits.hpp"
#include "core/rvec.hpp"
#include "core/types.hpp"

namespace dvbp {

class OpenBinTable {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit OpenBinTable(std::size_t dim, double capacity = 1.0);

  std::size_t dim() const noexcept { return dim_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  double capacity() const noexcept { return capacity_; }
  /// The exact double every feasibility comparison tests against
  /// (fits_threshold(capacity)).
  double threshold() const noexcept { return threshold_; }

  /// Appends a zero-load slot (a freshly opened bin).
  void push_back_zero();

  /// Appends a slot with the given load bits (checkpoint restore). Copies
  /// raw values -- no arithmetic -- so a restored load matches the saved
  /// one bit for bit.
  void push_back_raw(const double* load);

  /// load[slot] += add, one IEEE add per dimension, in dimension order.
  void add(std::size_t slot, const double* add);

  /// load[slot] -= sub, then clamp each dimension to >= 0, which removes
  /// the floating residue a bin's last departures leave.
  void sub_clamped(std::size_t slot, const double* sub);

  /// Turns `slot` into a hole: +inf in every lane and 255 in every byte,
  /// so it never fits. No other slot moves. O(d).
  void make_hole(std::size_t slot);

  /// Copies slot `from`'s loads and bytes into slot `to`, bit for bit --
  /// one step of the owner's compaction pass, which moves live slots down
  /// over holes.
  void move_slot(std::size_t from, std::size_t to);

  /// Drops every slot from `size` on, poisoning them back to padding.
  void truncate(std::size_t size);

  /// The exact predicate for one slot; every scan admits a slot only
  /// through it, or (Best/Worst Fit) through the same comparisons in
  /// fits_measured().
  bool fits(std::size_t slot, const double* add) const;

  /// Slot `slot`'s load, copied out of the lanes (+inf for a hole).
  RVec load(std::size_t slot) const;

  /// Earliest slot (opening order) where `add` fits, or npos -- First
  /// Fit's whole decision in one call.
  std::size_t find_first_fit(const double* add) const;

  /// Latest fitting slot, or npos (Last Fit).
  std::size_t find_last_fit(const double* add) const;

  /// Appends every fitting slot to `out_slots` in opening order (generic
  /// Any Fit path; `out_slots` is NOT cleared).
  void collect_fitting(const double* add,
                       std::vector<std::uint32_t>& out_slots) const;

  /// The number of open bins where `add` fits (fit-failure metrics).
  std::size_t count_fitting(const double* add) const;

  /// Best Fit: among fitting slots, the one with the maximal load
  /// measure, ties toward the earliest slot; npos when none fit.
  /// `measure` matches LoadMeasure's underlying values (0 = Linf,
  /// 1 = L1, 2 = L2) and is computed exactly as measure_load() computes
  /// it from the RVec load(slot) returns.
  std::size_t find_best_fit(const double* add, int measure) const;

  /// Worst Fit: minimal measure among fitting slots, ties toward the
  /// earliest slot; npos when none fit.
  std::size_t find_worst_fit(const double* add, int measure) const;

  /// Lane pointer for dimension j: entry [slot] is load(slot)[j]. Valid
  /// for size() slots.
  const double* lane(std::size_t j) const noexcept {
    return lanes_.data() + offset_ + j * lane_pitch();
  }

  /// Name of the byte kernel the runtime dispatch selected ("avx512",
  /// "avx2", "sse2", or "scalar") -- diagnostics, and pinned by
  /// tests/test_fit_kernels.cpp in both the SIMD and the no-SIMD build.
  static const char* active_kernel() noexcept;

 private:
  /// Chunks one kernel call fills at most: a scan's largest block.
  static constexpr std::size_t kBlockChunks = 16;

  void ensure_capacity(std::size_t want_slots);
  template <typename Value>
  void set_loads(std::size_t slot, Value value);
  /// Writes the byte bound for `add` into bound_.
  void set_bound(const double* add) const;
  /// One kernel call: fills masks[c], c < chunks, with the slots of the
  /// c-th 64-slot chunk from slot `base` whose bytes pass bound_, a
  /// superset of its fitting slots.
  void scan(std::size_t base, std::size_t chunks,
            std::uint64_t* masks) const {
    fill_masks_(bytes_.data() + byte_offset_, dim_, byte_pitch(), base,
                chunks, bound_.data(), masks);
  }
  /// Writes bound_, then calls visit(slot) for each slot that passes it,
  /// in opening order, until visit returns false; the first kernel call
  /// fills `block` chunks.
  template <typename Visit>
  void for_each_candidate(const double* add, std::size_t block,
                          Visit&& visit) const;
  /// fits(slot, add), and when it holds the slot's load measure.
  template <int kMeasure>
  bool fits_measured(std::size_t slot, const double* add,
                     double& measure) const;
  template <int kMeasure, typename Better>
  std::size_t find_extreme_fit(const double* add, Better better) const;
  // Each lane starts one cache line further on than its slots need, so a
  // slot's d entries fall in d different cache sets; with a power-of-two
  // pitch they would all share one, and a d = 16 update would thrash it.
  static constexpr std::size_t kLaneSkew = 8;   // doubles
  static constexpr std::size_t kByteSkew = 64;  // bytes
  std::size_t lane_pitch() const noexcept { return slots_ + kLaneSkew; }
  std::size_t byte_pitch() const noexcept { return slots_ + kByteSkew; }
  double* mutable_lane(std::size_t j) noexcept {
    return lanes_.data() + offset_ + j * lane_pitch();
  }
  std::uint8_t* byte_lane(std::size_t j) noexcept {
    return bytes_.data() + byte_offset_ + j * byte_pitch();
  }

  std::size_t dim_;
  double capacity_;
  double threshold_;
  double scale_;               // 255 / capacity: a load's byte scale
  std::size_t size_ = 0;       // slots: open bins and holes
  std::size_t slots_ = 0;      // slots each lane holds, multiple of 64
  std::vector<double> lanes_;  // dim_ lanes, lane_pitch() doubles apart
  std::size_t offset_ = 0;     // lane 0 starts at lanes_[offset_]
  std::vector<std::uint8_t> bytes_;  // dim_ lanes, byte_pitch() apart
  std::size_t byte_offset_ = 0;      // byte lane 0 starts here
  // The active byte kernel's mask function for this table's d, picked at
  // construction (detail::FitMaskFn, core/fit_kernels.hpp).
  void (*fill_masks_)(const std::uint8_t*, std::size_t, std::size_t,
                      std::size_t, std::size_t, const std::uint8_t*,
                      std::uint64_t*);
  mutable std::vector<std::uint8_t> bound_;  // the scan's per-query bound
};

}  // namespace dvbp

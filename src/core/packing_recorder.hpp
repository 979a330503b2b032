// PackingRecorder: a run's history, kept as exactly what a Packing holds
// -- the assignment by job id (last bin packed into, kNoBin if never) and
// one BinRecord per bin ever opened. It builds every Packing: a Dispatcher
// reports each bin open, placement (a replace is a placement) and close to
// the recorder attached to it, and obs::replay_packing() feeds one from a
// JSONL decision trace.
//
// Header-only: dvbp_obs feeds it and must not link dvbp_core.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/packing.hpp"
#include "core/serial.hpp"
#include "core/types.hpp"

namespace dvbp {

class PackingRecorder {
 public:
  /// `ids` presizes the assignment: ids below it read kNoBin until placed
  /// (simulate() passes the instance size, so every ItemId has a slot).
  explicit PackingRecorder(std::size_t ids = 0) : assignment_(ids, kNoBin) {}

  /// Bin `bin` opened at `at`. Bin ids are opening ranks: a recorder
  /// attached after the first bin opened throws std::logic_error here.
  void open(BinId bin, Time at) {
    if (bin != bins_.size()) {
      throw std::logic_error(
          "PackingRecorder: bin opened out of rank; attach the recorder "
          "before the first event");
    }
    bins_.push_back(BinRecord{bin, at, at, {}});
    open_.push_back(true);
  }

  /// Job `job` was packed into bin `bin` < num_bins(): it joins the bin's
  /// item list and its assignment becomes `bin`.
  void place(ItemId job, BinId bin) {
    if (job >= assignment_.size()) assignment_.resize(job + 1, kNoBin);
    assignment_[job] = bin;
    bins_[bin].items.push_back(job);
  }

  /// Open bin `bin` closed at `at`.
  void close(BinId bin, Time at) {
    bins_[bin].closed = at;
    open_[bin] = false;
  }

  std::size_t num_bins() const noexcept { return bins_.size(); }
  const std::vector<BinId>& assignment() const noexcept {
    return assignment_;
  }
  const std::vector<BinRecord>& bins() const noexcept { return bins_; }

  /// Last bin `job` was packed into; kNoBin when it never was.
  BinId bin_of(ItemId job) const noexcept {
    return job < assignment_.size() ? assignment_[job] : kNoBin;
  }

  /// Eq. (1) summed in bin-id order -- the arithmetic of Packing::cost(),
  /// so the two agree to the ULP. Open bins add zero.
  double cost() const noexcept {
    double total = 0.0;
    for (const BinRecord& rec : bins_) total += rec.usage_time();
    return total;
  }

  /// Usage accrued up to `at`: each bin adds max(0, min(at, close) -
  /// open), and a bin still open counts up to `at`.
  double cost_at(Time at) const noexcept {
    double total = 0.0;
    for (const BinRecord& rec : bins_) {
      const Time end = open_[rec.id] ? at : std::min(at, rec.closed);
      total += std::max(0.0, end - rec.opened);
    }
    return total;
  }

  Packing packing() const& { return Packing(assignment_, bins_); }
  Packing packing() && {
    return Packing(std::move(assignment_), std::move(bins_));
  }

  /// Checkpointing: the `extra` blob of persist/checkpoint.hpp.
  void save_state(serial::Writer& out) const {
    out.u64(assignment_.size());
    for (const BinId bin : assignment_) out.u32(bin);
    out.u64(bins_.size());
    for (const BinRecord& rec : bins_) {
      out.f64(rec.opened);
      out.f64(rec.closed);
      out.u8(open_[rec.id] ? 1 : 0);
      out.u64(rec.items.size());
      for (const ItemId job : rec.items) out.u32(job);
    }
  }

  /// Restores what save_state() wrote into a recorder that has recorded
  /// nothing yet. Throws serial::SerialError on truncated input.
  void restore_state(serial::Reader& in) {
    const std::uint64_t ids = in.u64();
    for (std::uint64_t i = 0; i < ids; ++i) assignment_.push_back(in.u32());
    const std::uint64_t num_bins = in.u64();
    for (std::uint64_t b = 0; b < num_bins; ++b) {
      BinRecord rec{static_cast<BinId>(b), in.f64(), in.f64(), {}};
      open_.push_back(in.u8() != 0);
      const std::uint64_t n = in.u64();
      for (std::uint64_t i = 0; i < n; ++i) rec.items.push_back(in.u32());
      bins_.push_back(std::move(rec));
    }
  }

 private:
  std::vector<BinId> assignment_;
  std::vector<BinRecord> bins_;
  std::vector<bool> open_;  // by bin id: opened and not yet closed
};

}  // namespace dvbp

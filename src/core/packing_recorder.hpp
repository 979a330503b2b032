// PackingRecorder: a run's history, kept flat. It builds every Packing: a
// Dispatcher reports each bin open, placement (a replace is a placement)
// and close to the recorder attached to it, and obs::replay_packing() feeds
// one from a JSONL decision trace.
//
// Layout: vectors that grow geometrically, so nothing is allocated per bin
// or per placement.
//  - the assignment by job id (last bin packed into, kNoBin if never):
//    4 bytes per job id;
//  - one RecordedBin per bin ever opened (opened, closed, placement count,
//    open flag): 24 bytes per bin;
//  - the job of every placement, in the order they happened: 4 bytes per
//    placement. A placement's bin is not stored: it is its job's
//    assignment, unless the job was packed again later;
//  - for each re-placement (a job packed while it already had a bin, i.e.
//    a replace), its log position and the bin the job had before: 16
//    bytes per replace;
//  - after restore_state(), the number of restored placements in each
//    bin, whose log entries come first, grouped by bin: 4 bytes per
//    restored bin.
// packing() and save_state() walk the log from the newest placement back,
// giving each its bin, and fill every bin's item list from its end, so
// each list is in placement order and a job that was replaced is listed in
// every bin it was packed into.
//
// Header-only: dvbp_obs feeds it and must not link dvbp_core.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/interval.hpp"
#include "core/packing.hpp"
#include "core/serial.hpp"
#include "core/types.hpp"

namespace dvbp {

class PackingRecorder {
 public:
  /// One bin's record: a BinRecord without its item list.
  struct RecordedBin {
    Time opened = 0.0;
    Time closed = 0.0;
    std::uint32_t placements = 0;  ///< items packed into it, replaces too
    bool open = true;              ///< opened and not yet closed
  };

  /// `ids` presizes the assignment (ids below it read kNoBin until placed)
  /// and reserves as many placements: simulate() and replay_trace() pass
  /// the number of items, each placed once.
  explicit PackingRecorder(std::size_t ids = 0) : assignment_(ids, kNoBin) {
    log_.reserve(ids);
  }

  /// Bin `bin` opened at `at`. Bin ids are opening ranks: a recorder
  /// attached after the first bin opened throws std::logic_error here.
  void open(BinId bin, Time at) {
    if (bin != bins_.size()) {
      throw std::logic_error(
          "PackingRecorder: bin opened out of rank; attach the recorder "
          "before the first event");
    }
    bins_.push_back(RecordedBin{at, at, 0, true});
  }

  /// Job `job` was packed into bin `bin` < num_bins(): it joins the bin's
  /// item list and its assignment becomes `bin`.
  void place(ItemId job, BinId bin) {
    if (job >= assignment_.size()) assignment_.resize(job + 1, kNoBin);
    if (assignment_[job] != kNoBin) {
      replaces_.push_back(Replace{log_.size(), assignment_[job]});
    }
    assignment_[job] = bin;
    log_.push_back(job);
    ++bins_[bin].placements;
  }

  /// Open bin `bin` closed at `at`.
  void close(BinId bin, Time at) {
    bins_[bin].closed = at;
    bins_[bin].open = false;
  }

  std::size_t num_bins() const noexcept { return bins_.size(); }
  /// Bin `bin` < num_bins().
  const RecordedBin& bin(BinId bin) const noexcept { return bins_[bin]; }
  const std::vector<BinId>& assignment() const noexcept {
    return assignment_;
  }

  /// Last bin `job` was packed into; kNoBin when it never was.
  BinId bin_of(ItemId job) const noexcept {
    return job < assignment_.size() ? assignment_[job] : kNoBin;
  }

  /// Eq. (1) summed in bin-id order -- the arithmetic of Packing::cost(),
  /// so the two agree to the ULP. Open bins add zero.
  double cost() const noexcept {
    double total = 0.0;
    for (const RecordedBin& rec : bins_) {
      total += Interval(rec.opened, rec.closed).length();
    }
    return total;
  }

  /// Usage accrued up to `at`: each bin adds max(0, min(at, close) -
  /// open), and a bin still open counts up to `at`.
  double cost_at(Time at) const noexcept {
    double total = 0.0;
    for (const RecordedBin& rec : bins_) {
      const Time end = rec.open ? at : std::min(at, rec.closed);
      total += std::max(0.0, end - rec.opened);
    }
    return total;
  }

  /// Every bin's BinRecord, in bin-id order, with its items.
  std::vector<BinRecord> bin_records() const {
    std::vector<BinRecord> out(bins_.size());
    std::vector<std::uint32_t> unfilled(bins_.size());
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      out[b].id = static_cast<BinId>(b);
      out[b].opened = bins_[b].opened;
      out[b].closed = bins_[b].closed;
      out[b].items.resize(bins_[b].placements);
      unfilled[b] = bins_[b].placements;
    }
    for_each_placement_newest_first([&](ItemId job, BinId bin) {
      out[bin].items[--unfilled[bin]] = job;
    });
    return out;
  }

  Packing packing() const& { return Packing(assignment_, bin_records()); }
  Packing packing() && {
    std::vector<BinRecord> bins = bin_records();
    return Packing(std::move(assignment_), std::move(bins));
  }

  /// Checkpointing: the `extra` blob of persist/checkpoint.hpp. Each bin
  /// is written with its item list, as a BinRecord holds it.
  void save_state(serial::Writer& out) const {
    out.u64(assignment_.size());
    for (const BinId bin : assignment_) out.u32(bin);
    // The log grouped by bin: bin b's items are jobs[start[b], start[b+1]).
    std::vector<std::size_t> start(bins_.size() + 1, 0);
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      start[b + 1] = start[b] + bins_[b].placements;
    }
    std::vector<ItemId> jobs(log_.size());
    {
      std::vector<std::size_t> end(start.begin() + 1, start.end());
      for_each_placement_newest_first(
          [&](ItemId job, BinId bin) { jobs[--end[bin]] = job; });
    }
    out.u64(bins_.size());
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      const RecordedBin& rec = bins_[b];
      out.f64(rec.opened);
      out.f64(rec.closed);
      out.u8(rec.open ? 1 : 0);
      out.u64(rec.placements);
      for (std::size_t i = start[b]; i < start[b + 1]; ++i) out.u32(jobs[i]);
    }
  }

  /// Restores what save_state() wrote into a recorder that has recorded
  /// nothing yet. The placements come back grouped by bin, ahead of any
  /// recorded later. Throws serial::SerialError on truncated input.
  void restore_state(serial::Reader& in) {
    const std::uint64_t ids = in.u64();
    for (std::uint64_t i = 0; i < ids; ++i) assignment_.push_back(in.u32());
    const std::uint64_t num_bins = in.u64();
    for (std::uint64_t b = 0; b < num_bins; ++b) {
      RecordedBin rec;
      rec.opened = in.f64();
      rec.closed = in.f64();
      rec.open = in.u8() != 0;
      const std::uint64_t n = in.u64();
      for (std::uint64_t i = 0; i < n; ++i) log_.push_back(in.u32());
      rec.placements = static_cast<std::uint32_t>(n);
      bins_.push_back(rec);
      restored_.push_back(rec.placements);
    }
  }

 private:
  struct Replace {
    std::size_t at;  // log position of the re-placement
    BinId from;      // the job's bin before it
  };

  /// Calls visit(job, bin) for every placement, the newest first. A job's
  /// placements since its newest replace are in its assigned bin; once the
  /// walk passes that replace, they are in the bin it moved the job from.
  template <typename Visit>
  void for_each_placement_newest_first(Visit&& visit) const {
    std::size_t restored = 0;
    for (const std::uint32_t n : restored_) restored += n;
    std::unordered_map<ItemId, BinId> earlier_bin;  // jobs the walk saw move
    auto replace = replaces_.rbegin();
    std::size_t i = log_.size();
    for (; i > restored; --i) {
      const ItemId job = log_[i - 1];
      BinId bin = assignment_[job];
      if (!earlier_bin.empty()) {
        const auto it = earlier_bin.find(job);
        if (it != earlier_bin.end()) bin = it->second;
      }
      visit(job, bin);
      if (replace != replaces_.rend() && replace->at == i - 1) {
        earlier_bin[job] = replace->from;
        ++replace;
      }
    }
    for (std::size_t b = restored_.size(); b-- > 0;) {
      for (std::uint32_t n = restored_[b]; n > 0; --n) {
        visit(log_[--i], static_cast<BinId>(b));
      }
    }
  }

  std::vector<BinId> assignment_;
  std::vector<RecordedBin> bins_;        // by bin id
  std::vector<ItemId> log_;              // every placement's job, in order
  std::vector<Replace> replaces_;        // in log order
  std::vector<std::uint32_t> restored_;  // by bin id, from restore_state()
};

}  // namespace dvbp

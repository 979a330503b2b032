// Packing: the immutable result of running a policy over an instance.
//
// Records which bin every item was placed in and every bin's usage period
// [opened, closed). cost() realizes eq. (1): the sum over bins of their
// usage-period lengths. validate() is a full offline audit used by tests:
// it replays the event stream and checks capacity, irrevocability, and
// open/close bookkeeping independently of the simulator.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/interval.hpp"
#include "core/types.hpp"

namespace dvbp {

struct BinRecord {
  BinId id = kNoBin;
  Time opened = 0.0;
  Time closed = 0.0;
  std::vector<ItemId> items;  ///< every item ever packed, in packing order

  Interval usage() const noexcept { return Interval(opened, closed); }
  Time usage_time() const noexcept { return usage().length(); }
  bool operator==(const BinRecord&) const = default;
};

class Packing {
 public:
  Packing() = default;
  Packing(std::vector<BinId> assignment, std::vector<BinRecord> bins)
      : assignment_(std::move(assignment)), bins_(std::move(bins)) {}

  /// assignment()[item id] = bin id.
  const std::vector<BinId>& assignment() const noexcept { return assignment_; }
  BinId bin_of(ItemId item) const { return assignment_.at(item); }

  const std::vector<BinRecord>& bins() const noexcept { return bins_; }
  std::size_t num_bins() const noexcept { return bins_.size(); }

  /// Total usage time (paper eq. (1)).
  double cost() const noexcept;

  /// Number of bins whose usage period contains t.
  std::size_t open_bins_at(Time t) const noexcept;

  /// Gantt-style CSV export for downstream visualization: one line per
  /// (bin, item) with the item's active interval, plus one "bin" line per
  /// usage period. Columns: kind,bin,item,start,end.
  std::string to_gantt_csv(const Instance& inst) const;

  /// Audits the packing against the instance it claims to pack. Checks:
  ///  - every item assigned to exactly one recorded bin that lists it;
  ///  - per-dimension load within capacity at every event timestamp;
  ///  - each bin opened at its first item's arrival and closed at the last
  ///    departure of its items (single usage interval, never reopened).
  /// Returns an error description or nullopt when consistent.
  std::optional<std::string> validate(const Instance& inst) const;

  /// Field-for-field (the trace round-trip's bit-exact check).
  bool operator==(const Packing&) const = default;

 private:
  std::vector<BinId> assignment_;
  std::vector<BinRecord> bins_;
};

}  // namespace dvbp

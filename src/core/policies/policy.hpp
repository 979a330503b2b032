// Policy: the online decision rule of Algorithm 1 in the paper.
//
// The Dispatcher -- the one placement engine, which simulate() also drives
// -- calls select_bin() on every arrival with its open bins' slots in
// opening order, in two halves: BinView records (per-bin metadata) and the
// OpenBinTable, whose SoA lanes hold the one copy of each bin's load
// (vectorized feasibility scans, OpenBinTable::fits and load for one slot).
// It packs the item into the returned bin, or a fresh bin when the policy
// returns kNoBin. Lifecycle callbacks let stateful policies (Move To
// Front's MRU list, Next Fit's current bin) track the system.
//
// Non-clairvoyance: the Item handed to select_bin carries its departure time
// (the engine needs it), but non-clairvoyant policies must not read it.
// Policies declare themselves via is_clairvoyant(); the test suite verifies
// that non-clairvoyant policies are invariant to departure-time perturbation
// of future items.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/item.hpp"
#include "core/serial.hpp"
#include "core/types.hpp"

namespace dvbp {

class OpenBinTable;  // core/open_bin_table.hpp

/// Read-only metadata of one open bin, passed to policies. Its load is
/// entry k of the OpenBinTable, where k is the view's own slot.
struct BinView {
  BinId id = kNoBin;
  Time opened_at = 0.0;
  std::size_t num_items = 0;    ///< currently-active items
  Time latest_departure = 0.0;  ///< max departure among active items
                                ///< (meaningful to clairvoyant policies)
};

class Policy {
 public:
  virtual ~Policy() = default;

  /// Stable identifier, e.g. "FirstFit".
  virtual std::string_view name() const noexcept = 0;

  /// Whether the policy reads departure times of arriving items.
  virtual bool is_clairvoyant() const noexcept { return false; }

  /// Decide where to pack `item` arriving at `now`. `open_bins` lists the
  /// slots in opening order: every open bin, plus holes left by bins that
  /// closed since the last compaction. A hole has id == kNoBin, no items
  /// and an all-+inf load, so it never fits and must never be returned.
  /// `table` holds the same slots' loads (slot k of the table is
  /// open_bins[k]) as structure-of-arrays lanes, whose vectorized scans
  /// answer feasibility for 16-64 bins per instruction with the exact
  /// predicate of OpenBinTable::fits. Return an open bin's id, or kNoBin
  /// to open a new bin. The engine verifies the returned bin actually
  /// fits.
  virtual BinId select_bin(Time now, const Item& item,
                           std::span<const BinView> open_bins,
                           const OpenBinTable& table) = 0;

  /// A new bin `bin` was opened at `now` for `first` (after select_bin
  /// returned kNoBin).
  virtual void on_open(Time now, BinId bin, const Item& first);

  /// `item` was packed into existing bin `bin` (after select_bin chose it).
  virtual void on_pack(Time now, BinId bin, const Item& item);

  /// `item` departed from `bin`; `closed` is true when the bin emptied and
  /// closed permanently.
  virtual void on_depart(Time now, BinId bin, const Item& item, bool closed);

  /// Reset all internal state; the Dispatcher calls it on construction.
  virtual void reset();

  // --- Checkpointing (src/persist/) -----------------------------------
  //
  // save_state() serializes every bit of internal decision state that a
  // future select_bin() can depend on; restore_state() rebuilds it into a
  // freshly reset() instance of the same policy (and configuration).
  // Contract: after save on A and restore into B, A and B must make
  // identical decisions on any identical future event stream -- this is
  // what makes checkpoint-based crash recovery bit-exact (pinned by
  // tests/test_persist_recovery.cpp). The default implementations carry no
  // state (correct for the policies that decide from the open bins
  // alone: FirstFit, BestFit, WorstFit, LastFit, MinExtensionFit).

  /// Appends the policy's internal state to `out`.
  virtual void save_state(serial::Writer& out) const;

  /// Restores state written by save_state() on an identically configured
  /// instance. Throws serial::SerialError on malformed input.
  virtual void restore_state(serial::Reader& in);
};

using PolicyPtr = std::unique_ptr<Policy>;

}  // namespace dvbp

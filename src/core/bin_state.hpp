// BinState: the item list of one open bin during a simulation.
//
// A bin is opened when it receives its first item, stays open while it holds
// an active item, and closes (permanently; paper Sec. 2.1) when its last
// item departs. Its load is not kept here: the Dispatcher's OpenBinTable
// lanes hold the one copy (core/open_bin_table.hpp).
//
// The active set is a singly linked list of usage-interval nodes threaded
// through a UsagePool shared by every bin of one Dispatcher
// (core/pool.hpp): add() splices a node from the pool's free list and
// remove() returns it -- no per-item vector growth or shrink on the hot
// path. Insertion order is preserved (the serialization format and the
// golden state hashes depend on it).
//
// latest_departure() is maintained incrementally from the departure each
// item carried when it was added: removal only rescans the bin when the
// current maximum departs. The engine processes departures in time order,
// so the departing item is almost always a non-maximum and removal is
// O(occupancy) only for the find of the item itself, not for the rescan.
#pragma once

#include <vector>

#include "core/item.hpp"
#include "core/pool.hpp"
#include "core/serial.hpp"
#include "core/types.hpp"

namespace dvbp {

class BinState {
 public:
  /// `pool` (borrowed, never null) backs the active-item list and must
  /// outlive the bin. Bins do not release their nodes on destruction --
  /// the owning engine drops the whole pool wholesale -- so a BinState
  /// must be drained (or abandoned with its pool) rather than copied; the
  /// engine moves one when it compacts its slots.
  BinState(BinId id, Time opened_at, UsagePool* pool)
      : id_(id), opened_at_(opened_at), pool_(pool) {}

  BinState(const BinState&) = delete;
  BinState& operator=(const BinState&) = delete;
  BinState(BinState&&) noexcept = default;
  BinState& operator=(BinState&&) noexcept = default;

  BinId id() const noexcept { return id_; }
  Time opened_at() const noexcept { return opened_at_; }
  std::size_t num_active() const noexcept { return num_active_; }
  bool is_empty() const noexcept { return num_active_ == 0; }
  /// Currently-active items in insertion order, materialized from the
  /// node list (cold-path use: audits, the rebalancer's planning pass).
  std::vector<ItemId> active_items() const;
  /// Count of every item ever packed here (for diagnostics).
  std::size_t total_packed() const noexcept { return total_packed_; }
  /// Latest departure among currently-active items (clairvoyant policies).
  /// Reflects each item's departure as of its add() call.
  Time latest_departure() const noexcept { return latest_departure_; }

  /// Adds an item; the engine has checked that it fits.
  void add(const Item& item);

  /// Removes a departing item (matched by id); returns true if the bin
  /// became empty. Throws std::logic_error, changing nothing, when the
  /// item is not active in this bin -- the check survives NDEBUG builds.
  bool remove(const Item& item);

  // --- Checkpointing (src/persist/) -----------------------------------

  /// Serializes the active items (insertion order) and the incremental
  /// bookkeeping. The identity fields and the load are NOT included --
  /// Dispatcher::save_state writes them ahead of this blob -- and
  /// restore() pairs the blob with an identically constructed shell.
  void save_state(serial::Writer& out) const;

  /// Restores state written by save_state() into a freshly constructed
  /// BinState of the same id/opened_at.
  void restore_state(serial::Reader& in);

 private:
  /// Links a node for `item` at the tail of the active list.
  void append(ItemId item, Time departure);

  BinId id_;
  Time opened_at_;
  UsagePool* pool_;
  /// Singly linked active list through pool_, insertion order; tail_
  /// makes append O(1).
  std::uint32_t head_ = UsagePool::kNil;
  std::uint32_t tail_ = UsagePool::kNil;
  std::size_t num_active_ = 0;
  std::size_t total_packed_ = 0;
  Time latest_departure_ = 0.0;
};

}  // namespace dvbp

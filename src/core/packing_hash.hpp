// Order-sensitive FNV-1a hashes over packing decisions. Shared by the
// golden-packing suite (tests/test_golden_packings.cpp), the crash-recovery
// parity suite (tests/test_persist_recovery.cpp), and the network layer
// (src/net/): the Snapshot/Drain RPCs report packing_hash() over the wire
// so a remote client can check bin-for-bin parity against an in-process
// run without shipping the whole packing.
//
// Floating-point fields are hashed as raw IEEE-754 bit patterns: two
// states hash equal only when they are bit-identical, which is exactly the
// recovery and parity contract. The constants and field order are pinned
// by the golden hashes in tests/golden_packings.inc -- do not change them.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/bin_state.hpp"
#include "core/dispatcher.hpp"
#include "core/packing.hpp"

namespace dvbp {

inline void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
}

/// Order-sensitive hash of every packing decision: item->bin assignment,
/// per-bin open/close timestamps (exact bit patterns) and item lists.
inline std::uint64_t packing_hash(const Packing& p) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (BinId b : p.assignment()) fnv(h, b);
  for (const BinRecord& rec : p.bins()) {
    fnv(h, rec.id);
    fnv(h, std::bit_cast<std::uint64_t>(rec.opened));
    fnv(h, std::bit_cast<std::uint64_t>(rec.closed));
    for (ItemId r : rec.items) fnv(h, r);
  }
  return h;
}

/// Hash of a live Dispatcher's state in a canonical order: the counters,
/// the clock and closed_usage()'s bits; each open bin in opening order
/// (id, opening time, occupancy, latest departure, exact load bits) and
/// its jobs in bin order; then the evicted jobs by id. A job hashes its id,
/// arrival, expected departure, tenant and size bits. Equal hashes mean
/// bit-identical live state, so (given equal policy state) equal futures.
/// History is the recorders' packing_hash().
inline std::uint64_t dispatcher_state_hash(const Dispatcher& d) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto job = [&h](const Item& item) {
    fnv(h, item.id);
    fnv(h, std::bit_cast<std::uint64_t>(item.arrival));
    fnv(h, std::bit_cast<std::uint64_t>(item.departure));
    fnv(h, item.tenant);
    for (double c : item.size) fnv(h, std::bit_cast<std::uint64_t>(c));
  };
  fnv(h, d.jobs_admitted());
  fnv(h, d.bins_opened());
  fnv(h, d.jobs_active());
  fnv(h, d.jobs_evicted());
  fnv(h, std::bit_cast<std::uint64_t>(d.last_event_time()));
  fnv(h, std::bit_cast<std::uint64_t>(d.closed_usage()));
  const auto views = d.open_views();
  for (std::size_t slot = 0; slot < views.size(); ++slot) {
    const BinView& view = views[slot];
    // Holes are layout, not state: a restored dispatcher has none.
    if (view.id == kNoBin) continue;
    fnv(h, view.id);
    fnv(h, std::bit_cast<std::uint64_t>(view.opened_at));
    fnv(h, view.num_items);
    fnv(h, std::bit_cast<std::uint64_t>(view.latest_departure));
    for (double c : d.open_table().load(slot)) {
      fnv(h, std::bit_cast<std::uint64_t>(c));
    }
    for (const ItemId id : d.open_bin_state(view.id)->active_items()) {
      job(*d.job(id));
    }
  }
  std::vector<const Item*> evicted;
  d.for_each_job([&evicted](const Dispatcher::LiveJob& live) {
    if (live.bin == kNoBin) evicted.push_back(&live.item);
  });
  std::sort(evicted.begin(), evicted.end(),
            [](const Item* a, const Item* b) { return a->id < b->id; });
  for (const Item* item : evicted) job(*item);
  return h;
}

}  // namespace dvbp

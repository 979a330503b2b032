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

#include <bit>
#include <cstdint>

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

/// Hash of a live Dispatcher's complete observable allocation state:
/// job->bin assignment, bin usage records, and -- the part a Packing does
/// not carry -- each open bin's exact load bits, occupancy, and latest
/// departure. Two dispatchers with equal hashes have made identical
/// placement decisions AND hold bit-identical open-bin state, so (given
/// equal policy state) their futures coincide.
inline std::uint64_t dispatcher_state_hash(const Dispatcher& d) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  fnv(h, d.jobs_admitted());
  fnv(h, std::bit_cast<std::uint64_t>(d.last_event_time()));
  for (JobId job = 0; job < d.jobs_admitted(); ++job) {
    fnv(h, d.bin_of(static_cast<JobId>(job)));
  }
  for (const BinRecord& rec : d.records()) {
    fnv(h, rec.id);
    fnv(h, std::bit_cast<std::uint64_t>(rec.opened));
    fnv(h, std::bit_cast<std::uint64_t>(rec.closed));
    for (ItemId r : rec.items) fnv(h, r);
  }
  for (const BinView& view : d.open_views()) {
    // Holes are layout, not state: a restored dispatcher has none.
    if (view.id == kNoBin) continue;
    fnv(h, view.id);
    fnv(h, view.num_items);
    fnv(h, std::bit_cast<std::uint64_t>(view.latest_departure));
    for (double c : *view.load) fnv(h, std::bit_cast<std::uint64_t>(c));
  }
  return h;
}

}  // namespace dvbp

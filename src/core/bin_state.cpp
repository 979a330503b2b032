#include "core/bin_state.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dvbp {

std::vector<ItemId> BinState::active_items() const {
  std::vector<ItemId> items;
  items.reserve(num_active_);
  for (std::uint32_t n = head_; n != UsagePool::kNil; n = (*pool_)[n].next) {
    items.push_back((*pool_)[n].item);
  }
  return items;
}

void BinState::append(ItemId item, Time departure) {
  const std::uint32_t node = pool_->alloc(item, departure);
  if (tail_ == UsagePool::kNil) {
    head_ = node;
  } else {
    (*pool_)[tail_].next = node;
  }
  tail_ = node;
  ++num_active_;
}

void BinState::add(const Item& item) {
  append(item.id, item.departure);
  ++total_packed_;
  latest_departure_ = std::max(latest_departure_, item.departure);
}

bool BinState::remove(const Item& item) {
  std::uint32_t prev = UsagePool::kNil;
  std::uint32_t node = head_;
  while (node != UsagePool::kNil && (*pool_)[node].item != item.id) {
    prev = node;
    node = (*pool_)[node].next;
  }
  if (node == UsagePool::kNil) {
    throw std::logic_error("BinState::remove: item " +
                           std::to_string(item.id) +
                           " is not active in bin " + std::to_string(id_));
  }
  const Time removed_departure = (*pool_)[node].departure;
  const std::uint32_t next = (*pool_)[node].next;
  if (prev == UsagePool::kNil) {
    head_ = next;
  } else {
    (*pool_)[prev].next = next;
  }
  if (tail_ == node) tail_ = prev;
  pool_->release(node);
  --num_active_;
  if (num_active_ == 0) {
    latest_departure_ = 0.0;
  } else if (removed_departure >= latest_departure_) {
    // Only the departing maximum forces a rescan; the engine removes in
    // departure order, so this branch fires only on ties with the maximum.
    Time latest = 0.0;
    for (std::uint32_t n = head_; n != UsagePool::kNil;
         n = (*pool_)[n].next) {
      latest = std::max(latest, (*pool_)[n].departure);
    }
    latest_departure_ = latest;
  }
  return num_active_ == 0;
}

void BinState::save_state(serial::Writer& out) const {
  out.u64(num_active_);
  for (std::uint32_t n = head_; n != UsagePool::kNil; n = (*pool_)[n].next) {
    out.u32((*pool_)[n].item);
    out.f64((*pool_)[n].departure);
  }
  out.u64(total_packed_);
  out.f64(latest_departure_);
}

void BinState::restore_state(serial::Reader& in) {
  const std::uint64_t n = in.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const ItemId item = in.u32();
    append(item, in.f64());
  }
  total_packed_ = in.u64();
  latest_departure_ = in.f64();
}

}  // namespace dvbp

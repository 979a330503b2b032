// Item: one job/VM request of the DVBP problem (paper Sec. 2.1).
//
// An item r is the tuple (a(r), e(r), s(r)): arrival time, departure time,
// and d-dimensional size. Its active interval is half-open [a, e).
#pragma once

#include <iosfwd>
#include <string>

#include "core/interval.hpp"
#include "core/rvec.hpp"
#include "core/serial.hpp"
#include "core/types.hpp"

namespace dvbp {

struct Item {
  ItemId id = kNoItem;   ///< Index within its Instance; also arrival order.
  Time arrival = 0.0;    ///< a(r)
  Time departure = 0.0;  ///< e(r); item has departed at this instant.
  RVec size;             ///< s(r) in [0,1]^d
  TenantId tenant = kNoTenant;  ///< submitting tenant (src/tenancy/)

  Item() = default;
  Item(ItemId id_, Time arrival_, Time departure_, RVec size_,
       TenantId tenant_ = kNoTenant)
      : id(id_), arrival(arrival_), departure(departure_),
        size(std::move(size_)), tenant(tenant_) {}

  /// Active interval I(r) = [a(r), e(r)).
  Interval interval() const noexcept { return Interval(arrival, departure); }

  /// Duration l(I(r)) = e(r) - a(r).
  Time duration() const noexcept { return departure - arrival; }

  /// True while lo <= t < departure.
  bool active_at(Time t) const noexcept { return interval().contains(t); }

  /// Time-space utilization u(r) = ||s(r)||_inf * l(I(r)) (paper Lemma 1).
  double utilization() const noexcept { return size.linf() * duration(); }

  std::string to_string() const;

  /// Checkpoint encoding: id, arrival, departure, tenant, size bits.
  void save_state(serial::Writer& out) const;
  static Item restore_state(serial::Reader& in, std::size_t dim);
};

std::ostream& operator<<(std::ostream& os, const Item& item);

}  // namespace dvbp

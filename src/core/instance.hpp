// Instance: an ordered list of DVBP items (the input sequence R).
//
// The order of the items is the arrival order the online algorithm sees;
// items sharing an arrival timestamp are presented in list order, which is
// what the adversarial constructions of Sec. 6 rely on ("items arrive in
// that order at time 0").
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/item.hpp"
#include "core/rvec.hpp"

namespace dvbp {

class Instance {
 public:
  Instance() = default;
  explicit Instance(std::size_t dim) : dim_(dim) {}

  /// Resource dimension d. 0 until the first item fixes it (if constructed
  /// with the default constructor).
  std::size_t dim() const noexcept { return dim_; }

  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }

  const Item& operator[](std::size_t i) const { return items_[i]; }
  const std::vector<Item>& items() const noexcept { return items_; }

  /// Append an item; its id is assigned as its position. Throws
  /// std::invalid_argument on dimension mismatch, non-positive duration,
  /// negative arrival, or size outside [0, 1+eps]^d.
  ItemId add(Time arrival, Time departure, RVec size);

  /// Makes room for `n` items, so that adding that many moves none.
  void reserve(std::size_t n) { items_.reserve(n); }

  /// Sorts items by (arrival, original order) and reassigns ids so that ids
  /// are again the arrival order: the order std::stable_sort by arrival
  /// gives. Generators that emit items out of order call this once at the
  /// end. It sorts (arrival, position) keys and moves each item once.
  void sort_by_arrival();

  /// Labels item `id` with a tenant (src/gen/tenants.hpp builds whole
  /// assignments). Throws std::out_of_range on a bad id.
  void set_tenant(ItemId id, TenantId tenant);

  /// Rescales item `id`'s size by `factor`, clamping every coordinate to
  /// [0, 1] so the item stays packable. Used by the demand-inflation
  /// adversary. Throws std::out_of_range on a bad id.
  void scale_size(ItemId id, double factor);

  /// --- Aggregate properties (paper Sec. 2.1) ---

  Time min_duration() const;
  Time max_duration() const;
  /// mu = max/min duration ratio. Throws on an empty instance.
  double mu() const;
  /// span(R): measure of the union of the active intervals.
  Time span() const;
  /// Earliest arrival / latest departure.
  Time first_arrival() const;
  Time last_departure() const;
  /// s(R): component-wise total demand.
  RVec total_size() const;
  /// s(R, t): total size of items active at time t.
  RVec load_at(Time t) const;
  /// Ids of items active at time t.
  std::vector<ItemId> active_at(Time t) const;
  /// Sum over items of ||s(r)||_inf * l(I(r)) (numerator of Lemma 1(ii)).
  double total_utilization() const;

  /// Full validation: per-item invariants plus id consistency. Returns an
  /// error description, or nullopt when the instance is well-formed.
  std::optional<std::string> validate() const;

  /// --- Trace (de)serialization ---
  /// CSV line format: arrival,departure,s_0,...,s_{d-1}
  /// Lines starting with '#' are comments.
  std::string to_csv() const;
  static Instance from_csv(std::istream& is);
  static Instance from_csv_string(const std::string& text);

 private:
  void check_item(Time arrival, Time departure, const RVec& size) const;

  std::size_t dim_ = 0;
  std::vector<Item> items_;
};

std::ostream& operator<<(std::ostream& os, const Instance& inst);

}  // namespace dvbp

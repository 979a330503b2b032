#include "core/instance.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/interval_set.hpp"

namespace dvbp {

void Instance::check_item(Time arrival, Time departure,
                          const RVec& size) const {
  if (dim_ != 0 && size.dim() != dim_) {
    throw std::invalid_argument("Instance::add: dimension mismatch");
  }
  if (size.dim() == 0) {
    throw std::invalid_argument("Instance::add: zero-dimensional size");
  }
  if (!std::isfinite(arrival) || !std::isfinite(departure)) {
    throw std::invalid_argument("Instance::add: non-finite timestamp");
  }
  for (std::size_t j = 0; j < size.dim(); ++j) {
    if (!std::isfinite(size[j])) {
      throw std::invalid_argument("Instance::add: non-finite size");
    }
  }
  if (arrival < 0.0) {
    throw std::invalid_argument("Instance::add: negative arrival time");
  }
  if (!(departure > arrival)) {
    throw std::invalid_argument("Instance::add: non-positive duration");
  }
  if (!size.is_nonnegative()) {
    throw std::invalid_argument("Instance::add: negative size component");
  }
  if (!size.fits_in_capacity(1.0)) {
    throw std::invalid_argument(
        "Instance::add: size exceeds unit bin capacity");
  }
}

ItemId Instance::add(Time arrival, Time departure, RVec size) {
  check_item(arrival, departure, size);
  if (dim_ == 0) dim_ = size.dim();
  const ItemId id = static_cast<ItemId>(items_.size());
  items_.emplace_back(id, arrival, departure, std::move(size));
  return id;
}

void Instance::sort_by_arrival() {
  // Sort 16-byte keys instead of 128-byte Items, then move each Item once.
  // The position breaks ties, which makes the order std::stable_sort's.
  struct Key {
    Time arrival;
    std::size_t from;
  };
  std::vector<Key> keys(items_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = {items_[i].arrival, i};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.arrival < b.arrival || (a.arrival == b.arrival && a.from < b.from);
  });
  std::vector<Item> sorted;
  sorted.reserve(keys.size());
  for (const Key& k : keys) {
    sorted.push_back(std::move(items_[k.from]));
    sorted.back().id = static_cast<ItemId>(sorted.size() - 1);
  }
  items_.swap(sorted);
}

void Instance::set_tenant(ItemId id, TenantId tenant) {
  if (id >= items_.size()) {
    throw std::out_of_range("Instance::set_tenant: bad item id");
  }
  items_[id].tenant = tenant;
}

void Instance::scale_size(ItemId id, double factor) {
  if (id >= items_.size()) {
    throw std::out_of_range("Instance::scale_size: bad item id");
  }
  if (!(factor >= 0.0)) {
    throw std::invalid_argument("Instance::scale_size: negative factor");
  }
  RVec& s = items_[id].size;
  for (std::size_t j = 0; j < s.dim(); ++j) {
    s[j] = std::min(1.0, s[j] * factor);
  }
}

Time Instance::min_duration() const {
  if (items_.empty()) throw std::logic_error("min_duration: empty instance");
  Time m = std::numeric_limits<Time>::infinity();
  for (const Item& r : items_) m = std::min(m, r.duration());
  return m;
}

Time Instance::max_duration() const {
  if (items_.empty()) throw std::logic_error("max_duration: empty instance");
  Time m = 0.0;
  for (const Item& r : items_) m = std::max(m, r.duration());
  return m;
}

double Instance::mu() const { return max_duration() / min_duration(); }

Time Instance::span() const {
  IntervalSet s;
  for (const Item& r : items_) s.add(r.interval());
  return s.measure();
}

Time Instance::first_arrival() const {
  if (items_.empty()) throw std::logic_error("first_arrival: empty instance");
  Time m = std::numeric_limits<Time>::infinity();
  for (const Item& r : items_) m = std::min(m, r.arrival);
  return m;
}

Time Instance::last_departure() const {
  if (items_.empty()) throw std::logic_error("last_departure: empty instance");
  Time m = -std::numeric_limits<Time>::infinity();
  for (const Item& r : items_) m = std::max(m, r.departure);
  return m;
}

RVec Instance::total_size() const {
  RVec total(dim_);
  for (const Item& r : items_) total += r.size;
  return total;
}

RVec Instance::load_at(Time t) const {
  RVec total(dim_);
  for (const Item& r : items_) {
    if (r.active_at(t)) total += r.size;
  }
  return total;
}

std::vector<ItemId> Instance::active_at(Time t) const {
  std::vector<ItemId> ids;
  for (const Item& r : items_) {
    if (r.active_at(t)) ids.push_back(r.id);
  }
  return ids;
}

double Instance::total_utilization() const {
  double u = 0.0;
  for (const Item& r : items_) u += r.utilization();
  return u;
}

std::optional<std::string> Instance::validate() const {
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const Item& r = items_[i];
    if (r.id != static_cast<ItemId>(i)) {
      return "item " + std::to_string(i) + ": id mismatch";
    }
    try {
      check_item(r.arrival, r.departure, r.size);
    } catch (const std::invalid_argument& e) {
      return "item " + std::to_string(i) + ": " + e.what();
    }
  }
  return std::nullopt;
}

std::string Instance::to_csv() const {
  std::ostringstream os;
  os << "# arrival,departure,s_0..s_" << (dim_ ? dim_ - 1 : 0) << '\n';
  for (const Item& r : items_) {
    os << r.arrival << ',' << r.departure;
    for (std::size_t j = 0; j < r.size.dim(); ++j) os << ',' << r.size[j];
    os << '\n';
  }
  return os.str();
}

Instance Instance::from_csv(std::istream& is) {
  Instance inst;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::vector<double> fields;
    std::string tok;
    while (std::getline(ls, tok, ',')) {
      try {
        fields.push_back(std::stod(tok));
      } catch (const std::exception&) {
        throw std::invalid_argument("Instance::from_csv: bad number at line " +
                                    std::to_string(lineno));
      }
    }
    if (fields.size() < 3) {
      throw std::invalid_argument(
          "Instance::from_csv: need arrival,departure,size.. at line " +
          std::to_string(lineno));
    }
    RVec size(fields.size() - 2);
    for (std::size_t j = 0; j + 2 < fields.size(); ++j) size[j] = fields[j + 2];
    inst.add(fields[0], fields[1], std::move(size));
  }
  return inst;
}

Instance Instance::from_csv_string(const std::string& text) {
  std::istringstream is(text);
  return from_csv(is);
}

std::ostream& operator<<(std::ostream& os, const Instance& inst) {
  os << "Instance{d=" << inst.dim() << ", n=" << inst.size() << '}';
  return os;
}

}  // namespace dvbp

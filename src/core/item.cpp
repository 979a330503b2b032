#include "core/item.hpp"

#include <ostream>
#include <sstream>

namespace dvbp {

std::string Item::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

void Item::save_state(serial::Writer& out) const {
  out.u32(id);
  out.f64(arrival);
  out.f64(departure);
  out.u32(tenant);
  for (const double c : size) out.f64(c);
}

Item Item::restore_state(serial::Reader& in, std::size_t dim) {
  Item item;
  item.id = in.u32();
  item.arrival = in.f64();
  item.departure = in.f64();
  item.tenant = in.u32();
  item.size = RVec(dim);
  for (std::size_t k = 0; k < dim; ++k) item.size[k] = in.f64();
  return item;
}

std::ostream& operator<<(std::ostream& os, const Item& item) {
  os << "Item{id=" << item.id << ", I=[" << item.arrival << ", "
     << item.departure << "), s=" << item.size;
  if (item.tenant != kNoTenant) os << ", tenant=" << item.tenant;
  return os << '}';
}

}  // namespace dvbp

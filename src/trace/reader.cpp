#include "trace/reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/serial.hpp"
#include "trace/format.hpp"

namespace dvbp::trace {

namespace {

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

double get_f64(const std::uint8_t* p) noexcept {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw TraceError("trace '" + path + "': " + why);
}

}  // namespace

TraceReader::TraceReader(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    fail(path, std::string("cannot open: ") + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(path, std::string("fstat failed: ") + std::strerror(err));
  }
  bytes_ = static_cast<std::uint64_t>(st.st_size);
  if (bytes_ < kHeaderBytes + 4) {
    ::close(fd);
    fail(path, "file smaller than header + footer (" +
                   std::to_string(bytes_) + " bytes)");
  }
  map_ = ::mmap(nullptr, bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    fail(path, std::string("mmap failed: ") + std::strerror(errno));
  }
  const std::uint8_t* base = static_cast<const std::uint8_t*>(map_);

  try {
    if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
      fail(path, "bad magic (not a dvbp trace file)");
    }
    const std::uint32_t header_bytes = get_u32(base + 8);
    const std::uint32_t version = get_u32(base + 12);
    if (version != kVersion) {
      fail(path, "unsupported version " + std::to_string(version));
    }
    if (header_bytes != kHeaderBytes) {
      fail(path, "bad header_bytes " + std::to_string(header_bytes));
    }
    const std::uint32_t dim = get_u32(base + 16);
    const std::uint32_t flags = get_u32(base + 20);
    if (dim == 0 || dim > kMaxDim) {
      fail(path, "dimension " + std::to_string(dim) + " outside [1, " +
                     std::to_string(kMaxDim) + "]");
    }
    if ((flags & ~kFlagTenants) != 0) {
      fail(path, "unknown flag bits set");
    }
    const bool tenants = (flags & kFlagTenants) != 0;
    const std::uint64_t n = get_u64(base + 24);

    // Exact-size check before trusting any offset: this alone rejects
    // every truncation and most appended-garbage corruptions.
    if (bytes_ != expected_file_bytes(n, dim, tenants)) {
      fail(path, "file size " + std::to_string(bytes_) +
                     " does not match layout for n=" + std::to_string(n) +
                     " d=" + std::to_string(dim));
    }

    const std::uint64_t off_arrival = get_u64(base + 32);
    const std::uint64_t off_departure = get_u64(base + 40);
    const std::uint64_t off_demand = get_u64(base + 48);
    const std::uint64_t off_tenant = get_u64(base + 56);
    if (off_arrival != kHeaderBytes || off_departure != off_arrival + n * 8 ||
        off_demand != off_departure + n * 8 ||
        off_tenant != (tenants ? off_demand + n * 8 * dim : 0)) {
      fail(path, "section offsets do not match the version-1 layout");
    }
    if (get_u64(base + 80) != 0) {
      fail(path, "reserved header field is nonzero");
    }

    const std::uint32_t stored_crc = get_u32(base + bytes_ - 4);
    const std::uint32_t actual_crc = serial::crc32(base, bytes_ - 4);
    if (stored_crc != actual_crc) {
      fail(path, "CRC32 mismatch (file corrupt)");
    }

    n_ = static_cast<std::size_t>(n);
    dim_ = dim;
    arrival_ = base + off_arrival;
    departure_ = base + off_departure;
    demand_ = base + off_demand;
    tenant_ = tenants ? base + off_tenant : nullptr;
    first_arrival_ = get_f64(base + 64);
    last_departure_ = get_f64(base + 72);

    // Semantic scan: after this the simulator/cursor can assume a valid
    // instance, so a hostile-but-CRC-consistent file still cannot push a
    // NaN or an unsorted arrival into the packing engine.
    Time max_dep = 0.0;
    Time prev = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      const Time a = arrival(i);
      const Time e = departure(i);
      if (!std::isfinite(a) || a < 0.0) {
        fail(path, "item " + std::to_string(i) + ": bad arrival");
      }
      if (i > 0 && a < prev) {
        fail(path, "arrival column not nondecreasing at item " +
                       std::to_string(i));
      }
      prev = a;
      if (!std::isfinite(e) || !(e > a)) {
        fail(path,
             "item " + std::to_string(i) + ": departure <= arrival");
      }
      max_dep = std::max(max_dep, e);
      for (std::size_t j = 0; j < dim_; ++j) {
        const double v = demand(i, j);
        if (!std::isfinite(v) || v < 0.0 || v > 1.0 + kCapacityEps) {
          fail(path, "item " + std::to_string(i) + ": demand[" +
                         std::to_string(j) + "] outside [0, 1+eps]");
        }
      }
    }
    const Time want_first = n_ > 0 ? arrival(0) : 0.0;
    const Time want_last = n_ > 0 ? max_dep : 0.0;
    if (first_arrival_ != want_first || last_departure_ != want_last) {
      fail(path, "header time summary disagrees with columns");
    }
    if (n_ > static_cast<std::uint64_t>(kNoItem)) {
      fail(path, "item count overflows ItemId");
    }
    sort_departures();
  } catch (...) {
    unmap();
    throw;
  }
}

TraceReader::~TraceReader() { unmap(); }

void TraceReader::sort_departures() {
  // An LSD radix sort of the rows, one byte of the departure's bits per
  // pass. Departures are finite and > arrival >= 0, so their bit patterns
  // order as their values do; each pass is stable and the rows start
  // ascending, so equal departures stay in row order. A pass whose byte
  // every row shares is skipped (integer times leave the low mantissa
  // bytes zero). A pass reads each row's key from the mapping: copying
  // the keys out first costs 16 more bytes per row and measured slower.
  const auto key = [this](std::size_t row) {
    return get_u64(departure_ + row * 8);
  };
  std::vector<std::uint32_t> rows(n_);
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n_; ++i) {
    rows[i] = static_cast<std::uint32_t>(i);
    const std::uint64_t k = key(i);
    for (std::size_t b = 0; b < 8; ++b) ++counts[b][(k >> 8 * b) & 0xFF];
  }
  std::vector<std::uint32_t> sorted(n_);
  for (std::size_t b = 0; b < 8; ++b) {
    std::array<std::size_t, 256>& next = counts[b];
    if (n_ == 0 || next[(key(0) >> 8 * b) & 0xFF] == n_) continue;
    std::size_t sum = 0;
    for (std::size_t& c : next) sum += std::exchange(c, sum);
    for (const std::uint32_t row : rows) {
      sorted[next[(key(row) >> 8 * b) & 0xFF]++] = row;
    }
    rows.swap(sorted);
  }
  departure_order_ = std::move(rows);
}

TraceReader::TraceReader(TraceReader&& other) noexcept
    : path_(std::move(other.path_)),
      map_(other.map_),
      bytes_(other.bytes_),
      n_(other.n_),
      dim_(other.dim_),
      first_arrival_(other.first_arrival_),
      last_departure_(other.last_departure_),
      arrival_(other.arrival_),
      departure_(other.departure_),
      demand_(other.demand_),
      tenant_(other.tenant_),
      departure_order_(std::exchange(other.departure_order_, {})) {
  other.map_ = nullptr;
  other.bytes_ = 0;
  other.n_ = 0;
  other.arrival_ = other.departure_ = other.demand_ = other.tenant_ = nullptr;
}

TraceReader& TraceReader::operator=(TraceReader&& other) noexcept {
  if (this != &other) {
    unmap();
    path_ = std::move(other.path_);
    map_ = other.map_;
    bytes_ = other.bytes_;
    n_ = other.n_;
    dim_ = other.dim_;
    first_arrival_ = other.first_arrival_;
    last_departure_ = other.last_departure_;
    arrival_ = other.arrival_;
    departure_ = other.departure_;
    demand_ = other.demand_;
    tenant_ = other.tenant_;
    departure_order_ = std::exchange(other.departure_order_, {});
    other.map_ = nullptr;
    other.bytes_ = 0;
    other.n_ = 0;
    other.arrival_ = other.departure_ = other.demand_ = other.tenant_ =
        nullptr;
  }
  return *this;
}

void TraceReader::unmap() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, bytes_);
    map_ = nullptr;
  }
}

void TraceReader::size_into(std::size_t i, RVec& out) const {
  if (out.dim() != dim_) out = RVec(dim_);
  for (std::size_t j = 0; j < dim_; ++j) out[j] = demand(i, j);
}

Item TraceReader::item(std::size_t i) const {
  Item r;
  r.id = static_cast<ItemId>(i);
  r.arrival = arrival(i);
  r.departure = departure(i);
  r.tenant = tenant(i);
  size_into(i, r.size);
  return r;
}

Instance TraceReader::materialize() const {
  // One pass: open() proved the rows arrival-sorted, so row i is item i
  // and nothing is sorted. Instance::add still checks every row.
  Instance inst(dim_);
  inst.reserve(n_);
  RVec size(dim_);
  for (std::size_t i = 0; i < n_; ++i) {
    size_into(i, size);
    const ItemId id = inst.add(arrival(i), departure(i), size);
    const TenantId t = tenant(i);
    if (t != kNoTenant) inst.set_tenant(id, t);
  }
  return inst;
}

bool TraceCursor::next(TraceEvent& ev) {
  const TraceReader& r = *reader_;
  const std::span<const std::uint32_t> order = r.departure_order();
  // Every item departs after it arrives, so the last departure ends the
  // stream.
  if (next_departure_ == order.size()) return false;
  const std::uint32_t row = order[next_departure_];
  const Time departure = r.departure(row);
  // Departures win ties: EventOrder sorts kDeparture before kArrival at
  // equal timestamps, and departure_order() breaks ties by row, the item
  // id. A departure that is due has arrived: its arrival precedes it.
  if (next_arrival_ < order.size() && r.arrival(next_arrival_) < departure) {
    const std::size_t i = next_arrival_++;
    ev.time = r.arrival(i);
    ev.kind = EventKind::kArrival;
    ev.item = static_cast<ItemId>(i);
  } else {
    ++next_departure_;
    ev.time = departure;
    ev.kind = EventKind::kDeparture;
    ev.item = static_cast<ItemId>(row);
  }
  ++emitted_;
  return true;
}

void TraceCursor::reset() {
  next_arrival_ = 0;
  next_departure_ = 0;
  emitted_ = 0;
}

}  // namespace dvbp::trace

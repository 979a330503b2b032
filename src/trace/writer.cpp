#include "trace/writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "core/serial.hpp"
#include "trace/format.hpp"

namespace dvbp::trace {

namespace {

void put_u32(std::vector<std::uint8_t>& buf, std::size_t at,
             std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_u64(std::vector<std::uint8_t>& buf, std::size_t at,
             std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_f64(std::vector<std::uint8_t>& buf, std::size_t at, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(buf, at, bits);
}

}  // namespace

TraceWriter::TraceWriter(std::size_t dim, bool with_tenants)
    : dim_(dim), with_tenants_(with_tenants) {
  if (dim == 0 || dim > kMaxDim) {
    throw TraceError("TraceWriter: dimension must be in [1, " +
                     std::to_string(kMaxDim) + "], got " +
                     std::to_string(dim));
  }
}

void TraceWriter::add(Time arrival, Time departure, const RVec& size,
                      TenantId tenant) {
  if (!std::isfinite(arrival) || arrival < 0.0) {
    throw TraceError("TraceWriter::add: arrival must be finite and >= 0");
  }
  if (!std::isfinite(departure) || !(departure > arrival)) {
    throw TraceError("TraceWriter::add: departure must exceed arrival");
  }
  if (size.dim() != dim_) {
    throw TraceError("TraceWriter::add: size has dimension " +
                     std::to_string(size.dim()) + ", trace has " +
                     std::to_string(dim_));
  }
  for (std::size_t j = 0; j < dim_; ++j) {
    if (!std::isfinite(size[j]) || size[j] < 0.0 ||
        size[j] > 1.0 + kCapacityEps) {
      throw TraceError(
          "TraceWriter::add: size component outside [0, 1+eps]");
    }
  }
  arrival_.push_back(arrival);
  departure_.push_back(departure);
  for (std::size_t j = 0; j < dim_; ++j) demand_.push_back(size[j]);
  tenant_.push_back(tenant);
}

void TraceWriter::write(const std::string& path) {
  const std::uint64_t n = arrival_.size();

  // Stable arrival order: ties keep insertion order, exactly like
  // Instance::sort_by_arrival (the row index becomes the ItemId). Items
  // staged in arrival order, as every generator emits them, keep theirs.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!std::is_sorted(arrival_.begin(), arrival_.end())) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return arrival_[a] < arrival_[b];
                     });
  }

  const std::uint64_t total =
      expected_file_bytes(n, static_cast<std::uint32_t>(dim_),
                          with_tenants_);
  std::vector<std::uint8_t> buf(total, 0);

  const std::uint64_t off_arrival = kHeaderBytes;
  const std::uint64_t off_departure = off_arrival + n * 8;
  const std::uint64_t off_demand = off_departure + n * 8;
  const std::uint64_t off_tenant =
      with_tenants_ ? off_demand + n * 8 * dim_ : 0;

  std::memcpy(buf.data(), kMagic, sizeof(kMagic));
  put_u32(buf, 8, kHeaderBytes);
  put_u32(buf, 12, kVersion);
  put_u32(buf, 16, static_cast<std::uint32_t>(dim_));
  put_u32(buf, 20, with_tenants_ ? kFlagTenants : 0);
  put_u64(buf, 24, n);
  put_u64(buf, 32, off_arrival);
  put_u64(buf, 40, off_departure);
  put_u64(buf, 48, off_demand);
  put_u64(buf, 56, off_tenant);
  Time first = 0.0;
  Time last = 0.0;
  if (n > 0) {
    first = arrival_[order.front()];
    last = *std::max_element(departure_.begin(), departure_.end());
  }
  put_f64(buf, 64, first);
  put_f64(buf, 72, last);
  put_u64(buf, 80, 0);

  for (std::uint64_t i = 0; i < n; ++i) {
    const std::size_t src = order[i];
    put_f64(buf, off_arrival + i * 8, arrival_[src]);
    put_f64(buf, off_departure + i * 8, departure_[src]);
    for (std::size_t j = 0; j < dim_; ++j) {
      put_f64(buf, off_demand + (j * n + i) * 8, demand_[src * dim_ + j]);
    }
    if (with_tenants_) put_u32(buf, off_tenant + i * 4, tenant_[src]);
  }

  const std::uint32_t crc = serial::crc32(buf.data(), total - 4);
  put_u32(buf, total - 4, crc);

  // tmp + fsync + rename: a crashed writer never leaves a half-written
  // file under the final name (the persist checkpoint convention).
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw TraceError("TraceWriter: cannot create '" + tmp +
                     "': " + std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < buf.size()) {
    const ssize_t rc =
        ::write(fd, buf.data() + written, buf.size() - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw TraceError("TraceWriter: write to '" + tmp +
                       "' failed: " + std::strerror(err));
    }
    written += static_cast<std::size_t>(rc);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw TraceError("TraceWriter: fsync/close of '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw TraceError("TraceWriter: rename to '" + path +
                     "' failed: " + std::strerror(err));
  }
}

void TraceWriter::write_instance(const Instance& inst,
                                 const std::string& path) {
  bool tenants = false;
  for (const Item& r : inst.items()) {
    if (r.tenant != kNoTenant) {
      tenants = true;
      break;
    }
  }
  TraceWriter w(inst.dim() == 0 ? 1 : inst.dim(), tenants);
  for (const Item& r : inst.items()) {
    w.add(r.arrival, r.departure, r.size, r.tenant);
  }
  w.write(path);
}

}  // namespace dvbp::trace

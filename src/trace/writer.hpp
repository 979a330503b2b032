// TraceWriter: stages DVBP items and writes one binary columnar trace file
// (trace/format.hpp). Staging is column-wise in memory -- the file is
// columnar, so the writer keeps each column contiguous and the final write
// is a handful of large memcpys, not a per-item encode loop.
//
// Items may be added in any order; write() stable-sorts by arrival (items
// added in arrival order are left as they are) so the row index is the
// ItemId, mirroring Instance::sort_by_arrival. For an Instance already in
// arrival order (every registered generator emits one) the round-trip
// instance -> trace -> materialize() is bit-exact: sizes and timestamps
// are stored as raw IEEE-754 doubles, never through text.
//
// The file lands atomically: staged to <path>.tmp, fsync'd, then renamed
// over <path> (the checkpoint convention of src/persist/).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/rvec.hpp"
#include "core/types.hpp"

namespace dvbp::trace {

class TraceWriter {
 public:
  /// `with_tenants` selects whether the u32 tenant column is emitted.
  explicit TraceWriter(std::size_t dim, bool with_tenants = false);

  std::size_t dim() const noexcept { return dim_; }
  std::size_t items() const noexcept { return arrival_.size(); }
  bool with_tenants() const noexcept { return with_tenants_; }

  /// Stages one item. Validation mirrors Instance::add: finite
  /// nonnegative arrival, departure > arrival, size of the writer's
  /// dimension with every component in [0, 1 + kCapacityEps]. Throws
  /// TraceError on violations.
  void add(Time arrival, Time departure, const RVec& size,
           TenantId tenant = kNoTenant);

  /// Sorts the staged items by (arrival, insertion order) and writes the
  /// file. The writer stays usable (more items may be added and written
  /// again). Throws TraceError on I/O failure.
  void write(const std::string& path);

  /// Writes `inst` as a trace file. The tenant column is included iff any
  /// item carries a tenant label.
  static void write_instance(const Instance& inst, const std::string& path);

 private:
  std::size_t dim_;
  bool with_tenants_;
  std::vector<Time> arrival_;
  std::vector<Time> departure_;
  std::vector<double> demand_;  // dimension-major: column j at [j*n .. )
                                // only after write() packs it; staged
                                // item-major and transposed on write
  std::vector<TenantId> tenant_;
};

}  // namespace dvbp::trace

// TraceReader: zero-copy, mmap-backed access to a binary trace file
// (trace/format.hpp), plus TraceCursor, a streaming merge of the 2n
// arrival/departure events in exactly the order build_event_stream()
// produces -- without ever materializing an Instance or an event vector.
//
// Validation happens once, at open: magic/version/layout checks, the
// trailing CRC32 over the whole file, and one semantic scan (arrivals
// nondecreasing, departure > arrival, demands inside the unit bin). Open
// then sorts the rows once by (departure, row), 4 bytes per row, so the
// departure side of every cursor is a second sorted column. After open()
// succeeds every accessor can trust the mapping and the reader never
// changes, so cursors on several threads share it without a lock. A
// truncated or corrupted file -- any byte, anywhere -- fails open() with
// TraceError; the reader never crashes on hostile input (fuzzed in
// tests/test_trace.cpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/event.hpp"
#include "core/instance.hpp"
#include "core/item.hpp"
#include "core/rvec.hpp"
#include "core/types.hpp"

namespace dvbp::trace {

class TraceReader {
 public:
  /// Maps and validates `path`. Throws TraceError on I/O failure or any
  /// format/CRC/semantic violation.
  explicit TraceReader(const std::string& path);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;
  TraceReader(TraceReader&& other) noexcept;
  TraceReader& operator=(TraceReader&& other) noexcept;

  const std::string& path() const noexcept { return path_; }
  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  std::size_t dim() const noexcept { return dim_; }
  bool has_tenants() const noexcept { return tenant_ != nullptr; }
  std::uint64_t file_bytes() const noexcept { return bytes_; }
  Time first_arrival() const noexcept { return first_arrival_; }
  Time last_departure() const noexcept { return last_departure_; }

  Time arrival(std::size_t i) const noexcept {
    return load_f64(arrival_ + i * 8);
  }
  Time departure(std::size_t i) const noexcept {
    return load_f64(departure_ + i * 8);
  }
  /// Demand of item `i` in dimension `j` (columns are dimension-major).
  double demand(std::size_t i, std::size_t j) const noexcept {
    return load_f64(demand_ + (j * n_ + i) * 8);
  }
  TenantId tenant(std::size_t i) const noexcept {
    if (tenant_ == nullptr) return kNoTenant;
    std::uint32_t v;
    std::memcpy(&v, tenant_ + i * 4, 4);
    return v;
  }

  /// Every row, by ascending departure and then row: the order in which
  /// build_event_stream() departs the items. Empty for a moved-from
  /// reader.
  std::span<const std::uint32_t> departure_order() const noexcept {
    return departure_order_;
  }

  /// Gathers item `i`'s demand vector into `out` (resized to dim()).
  void size_into(std::size_t i, RVec& out) const;
  /// Item `i` as a core Item (id == row index).
  Item item(std::size_t i) const;

  /// Materializes the whole trace as an Instance -- the compatibility
  /// bridge for offline tooling; O(n) memory, avoid for huge traces. One
  /// pass, no sort: row i is item i, and Instance::add checks every row.
  Instance materialize() const;

 private:
  void unmap() noexcept;
  void sort_departures();

  static double load_f64(const std::uint8_t* p) noexcept {
    double v;
    std::memcpy(&v, p, 8);
    return v;
  }

  std::string path_;
  void* map_ = nullptr;
  std::uint64_t bytes_ = 0;
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  Time first_arrival_ = 0.0;
  Time last_departure_ = 0.0;
  const std::uint8_t* arrival_ = nullptr;
  const std::uint8_t* departure_ = nullptr;
  const std::uint8_t* demand_ = nullptr;
  const std::uint8_t* tenant_ = nullptr;
  std::vector<std::uint32_t> departure_order_;
};

/// One streamed trace event; mirrors core Event.
struct TraceEvent {
  Time time = 0.0;
  EventKind kind = EventKind::kArrival;
  ItemId item = kNoItem;
};

/// Streaming event merge over a TraceReader's two sorted columns: the
/// arrival column and the reader's departure_order(). The emitted order is
/// IDENTICAL to build_event_stream(materialize()): time ascending,
/// departures before arrivals at equal timestamps, ties by item id -- so a
/// Dispatcher fed from the cursor reproduces simulate() bin for bin. Two
/// indices of state; the cursor allocates nothing.
class TraceCursor {
 public:
  explicit TraceCursor(const TraceReader& reader) : reader_(&reader) {}

  /// Emits the next event; false when the stream is exhausted.
  bool next(TraceEvent& ev);

  /// Rewinds to the start of the stream.
  void reset();

  std::uint64_t events_emitted() const noexcept { return emitted_; }

 private:
  const TraceReader* reader_;
  std::size_t next_arrival_ = 0;
  std::size_t next_departure_ = 0;  ///< index into departure_order()
  std::uint64_t emitted_ = 0;
};

}  // namespace dvbp::trace

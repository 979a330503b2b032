#include "trace/reduce.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/instance_stats.hpp"
#include "core/rvec.hpp"
#include "core/types.hpp"
#include "trace/format.hpp"
#include "trace/writer.hpp"

namespace dvbp::trace {

StreamBounds streaming_lower_bounds(const TraceReader& reader) {
  StreamBounds b;
  if (reader.empty()) return b;
  const std::size_t d = reader.dim();

  // (ii) is a plain row scan; (i) and (iii) share one event sweep.
  double util = 0.0;
  for (std::size_t i = 0; i < reader.size(); ++i) {
    double linf = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      linf = std::max(linf, reader.demand(i, j));
    }
    util += linf * (reader.departure(i) - reader.arrival(i));
  }
  b.utilization = util / static_cast<double>(d);

  TraceCursor cursor(reader);
  TraceEvent ev;
  RVec size(d);
  HeightSweep sweep(d, reader.first_arrival());
  while (cursor.next(ev)) {
    const Time dt = sweep.advance(ev.time);
    if (sweep.active() > 0) b.span += dt;
    reader.size_into(ev.item, size);
    if (ev.kind == EventKind::kArrival) {
      sweep.arrive(size);
    } else {
      sweep.depart(size);
    }
  }
  b.height = sweep.bound();
  return b;
}

namespace {

/// A grid class: items sharing rounded units and a grid interval.
struct GroupKey {
  std::uint32_t cell_lo = 0;
  std::uint32_t cell_hi = 0;
  std::vector<std::uint32_t> units;

  bool operator<(const GroupKey& o) const {
    if (cell_lo != o.cell_lo) return cell_lo < o.cell_lo;
    if (cell_hi != o.cell_hi) return cell_hi < o.cell_hi;
    return units < o.units;
  }
};

}  // namespace

ReduceResult reduce_trace(const TraceReader& in, const std::string& out_path,
                          const ReduceOptions& options) {
  const std::uint32_t g = options.size_grid;
  const std::uint32_t cells = options.time_cells;
  if (g == 0 || cells == 0) {
    throw TraceError("reduce: size_grid and time_cells must be >= 1");
  }

  ReduceResult result;
  result.original_items = in.size();
  result.dim = static_cast<std::uint32_t>(in.dim());
  result.size_grid = g;
  result.time_cells = cells;
  result.original_bounds = streaming_lower_bounds(in);

  const std::size_t d = in.dim();
  TraceWriter out(d, /*with_tenants=*/false);
  if (in.empty()) {
    out.write(out_path);
    return result;
  }

  const Time t0 = in.first_arrival();
  const Time cell = (in.last_departure() - t0) / cells;
  result.cell_width = cell;

  // One row scan, grouping by (rounded units, widened grid interval).
  std::map<GroupKey, std::uint64_t> groups;
  GroupKey key;
  key.units.resize(d);
  for (std::size_t i = 0; i < in.size(); ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      // Round UP to units of 1/g; robust_ceil forgives float residue so an
      // exact multiple like 0.25 * 16 = 4 never rounds to 5. Demands may
      // legally sit at 1 + kCapacityEps, whose ceiling would be g + 1; the
      // clamp snaps them to exactly 1, still within every fit check.
      const double scaled = in.demand(i, j) * g;
      const auto u = static_cast<std::uint32_t>(
          std::max(0.0, robust_ceil(scaled)));
      key.units[j] = std::min(u, g);
    }

    const Time a = in.arrival(i);
    const Time e = in.departure(i);
    // Widen the interval outward to cell boundaries. The correction loops
    // undo any floating error of the division: the final [lo, hi] MUST
    // cover [a, e] or the dominance argument breaks.
    std::uint64_t k_lo =
        cell > 0.0 ? static_cast<std::uint64_t>(
                         std::max(0.0, std::floor((a - t0) / cell)))
                   : 0;
    while (k_lo > 0 && t0 + static_cast<double>(k_lo) * cell > a) --k_lo;
    std::uint64_t k_hi =
        cell > 0.0 ? static_cast<std::uint64_t>(
                         std::max(1.0, std::ceil((e - t0) / cell)))
                   : 1;
    if (k_hi <= k_lo) k_hi = k_lo + 1;
    while (t0 + static_cast<double>(k_hi) * cell < e) ++k_hi;

    key.cell_lo = static_cast<std::uint32_t>(k_lo);
    key.cell_hi = static_cast<std::uint32_t>(k_hi);
    ++groups[key];
  }
  result.groups = groups.size();

  // Stack each class: m members per super-item keeps every dimension at
  // exactly (units_j * m) / g <= 1 -- integer arithmetic, no epsilon.
  RVec size(d);
  for (const auto& [k, count] : groups) {
    std::uint64_t m = count;  // all-zero demand stacks without limit
    for (std::size_t j = 0; j < d; ++j) {
      if (k.units[j] > 0) {
        m = std::min<std::uint64_t>(m, g / k.units[j]);
      }
    }
    if (m == 0) m = 1;  // unreachable (units <= g), defensive

    const Time lo = t0 + static_cast<double>(k.cell_lo) * cell;
    const Time hi = t0 + static_cast<double>(k.cell_hi) * cell;
    std::uint64_t remaining = count;
    while (remaining > 0) {
      const std::uint64_t stack = std::min(m, remaining);
      for (std::size_t j = 0; j < d; ++j) {
        size[j] = static_cast<double>(k.units[j] * stack) /
                  static_cast<double>(g);
      }
      out.add(lo, hi, size);
      ++result.reduced_items;
      remaining -= stack;
    }
  }

  out.write(out_path);
  return result;
}

}  // namespace dvbp::trace

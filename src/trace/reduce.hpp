// Data reduction for exact-OPT anchoring on large traces, after van Bevern
// et al. (On data reduction for dynamic vector bin packing; PAPERS.md).
//
// Two reductions, both UPPER-directed (they only make the instance harder):
//
//   1. Rounding. Every demand is rounded UP to the grid {0, 1/g, ..., g/g}
//      (integer unit arithmetic, so no epsilon can leak), and every active
//      interval is widened OUTWARD to a uniform time grid of `time_cells`
//      cells spanning [first_arrival, last_departure].
//   2. Merging. Items that became identical -- same unit vector, same grid
//      interval -- are stacked into super-items of up to
//      m = min_j floor(g / units_j) members, so a stack's demand is
//      exactly (units_j * m) / g <= 1 per dimension.
//
// Soundness: any packing of the reduced trace induces a packing of the
// original (each member rides where its stack went, inside an interval
// that covers its own), hence
//
//     OPT(original) <= OPT(reduced) <= offline_opt(reduced).cost,
//
// and the right-hand side holds even when vbp_exact hits its node limit
// (offline_opt's cost is an upper bound whenever !exact). The LOWER end of
// the reported OPT interval never touches the reduced instance: it is the
// Lemma-1 bounds computed exactly on the ORIGINAL trace by a streaming
// sweep. Together: OPT(original) in [streaming_lower_bounds(original).best,
// offline_opt(reduced).cost] -- the interval the harness prints.
//
// Stacking is deliberately NOT used for lower bounds: it can only raise
// OPT (two 0.4-items stacked to 0.8 can no longer pair with a 0.6-item),
// so a bound computed on the stacked instance would not transfer down.
#pragma once

#include <cstdint>
#include <string>

#include "trace/reader.hpp"

namespace dvbp::trace {

/// Lemma-1 lower bounds on OPT of a trace, computed by a streaming event
/// sweep in O(d) memory beyond the reader -- the trace-native mirror of
/// opt/lower_bounds.hpp (identical arithmetic, including robust_ceil and
/// the clamp of departure residue).
struct StreamBounds {
  double height = 0.0;       ///< Lemma 1 (i): integral of ceil(linf load)
  double utilization = 0.0;  ///< Lemma 1 (ii)
  double span = 0.0;         ///< Lemma 1 (iii)

  double best() const noexcept {
    return height > utilization ? (height > span ? height : span)
                                : (utilization > span ? utilization : span);
  }
};

StreamBounds streaming_lower_bounds(const TraceReader& reader);

struct ReduceOptions {
  /// Demand grid granularity g: sizes round up to multiples of 1/g.
  /// Smaller g merges more aggressively (coarser upper bound).
  std::uint32_t size_grid = 16;
  /// Number of uniform time cells spanning the trace's active window.
  std::uint32_t time_cells = 64;
};

struct ReduceResult {
  std::uint64_t original_items = 0;
  std::uint64_t reduced_items = 0;
  std::uint64_t groups = 0;       ///< distinct (units, interval) classes
  std::uint32_t dim = 0;
  std::uint32_t size_grid = 0;    ///< echo of the options used
  std::uint32_t time_cells = 0;
  double cell_width = 0.0;        ///< seconds per time cell
  /// Lemma-1 bounds of the ORIGINAL trace (the interval's lower end).
  StreamBounds original_bounds;
};

/// Reduces `in` and writes the shrunken trace to `out_path`. Throws
/// TraceError on bad options (zero grids) or I/O failure. The tenant
/// column is dropped: the reduced trace exists to anchor OPT, which is
/// tenant-blind.
ReduceResult reduce_trace(const TraceReader& in, const std::string& out_path,
                          const ReduceOptions& options = {});

}  // namespace dvbp::trace

// Trace replay: reconstruct the exact Packing of a run from its JSONL
// decision trace.
//
// A trace produced by the Tracer (docs/OBSERVABILITY.md schema) records
// every placement, bin opening, and bin closing; that is sufficient to
// rebuild the full assignment and every bin's usage period without rerunning
// the policy. The round-trip `simulate() -> trace -> replay_packing()`
// must reproduce the simulator's Packing bit-for-bit (tested in
// tests/test_obs.cpp), which makes traces a trustworthy audit log. The
// parser checks each record and feeds a PackingRecorder, the builder of
// every Packing in the library.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/packing.hpp"

namespace dvbp::obs {

/// Rebuilds the Packing from JSONL trace lines (blank lines are skipped).
/// Throws std::invalid_argument on malformed records or on traces that are
/// structurally inconsistent (placement into a never-opened bin, ...).
Packing replay_packing(const std::vector<std::string>& lines);

/// Streams `is` line by line and replays.
Packing replay_packing(std::istream& is);

/// Opens `path` and replays. Throws std::runtime_error when unreadable.
Packing replay_packing_file(const std::string& path);

}  // namespace dvbp::obs

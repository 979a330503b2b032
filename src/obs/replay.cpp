#include "obs/replay.hpp"

#include <fstream>
#include <istream>
#include <stdexcept>

#include "core/packing_recorder.hpp"
#include "obs/json.hpp"

namespace dvbp::obs {

namespace {

[[noreturn]] void bad_trace(const std::string& why, std::string_view line) {
  throw std::invalid_argument("replay_packing: " + why + " in line: " +
                             std::string(line));
}

std::uint32_t require(std::string_view line, const char* key) {
  const auto value = scan_json_number(line, key);
  if (!value) bad_trace("missing \"" + std::string(key) + "\"", line);
  return static_cast<std::uint32_t>(*value);
}

// Checks one trace record and feeds what it says to `recorder`.
void feed(PackingRecorder& recorder, std::string_view line) {
  if (line.empty()) return;
  const auto kind = scan_json_string(line, "ev");
  if (!kind) bad_trace("missing \"ev\"", line);
  const auto t = scan_json_number(line, "t");
  if (!t) bad_trace("missing \"t\"", line);
  if (*kind == "open") {
    const BinId bin = require(line, "bin");
    if (bin != recorder.num_bins()) {
      bad_trace("bin ids must appear in opening order", line);
    }
    recorder.open(bin, *t);
  } else if (*kind == "place" || *kind == "replace") {
    // A "replace" re-places an evicted item: unlike "place" it may
    // legitimately override an earlier assignment (the item migrated).
    const bool replace = *kind == "replace";
    const BinId bin = require(line, "bin");
    const ItemId id = require(line, "item");
    if (bin >= recorder.num_bins()) {
      bad_trace(replace ? "replace into unopened bin"
                        : "placement into unopened bin",
                line);
    }
    if (replace && recorder.bin_of(id) == kNoBin) {
      bad_trace("replace of an item never placed", line);
    }
    if (!replace && recorder.bin_of(id) != kNoBin) {
      bad_trace("item placed twice", line);
    }
    recorder.place(id, bin);
  } else if (*kind == "close") {
    const BinId bin = require(line, "bin");
    if (bin >= recorder.num_bins()) bad_trace("closing an unopened bin", line);
    recorder.close(bin, *t);
  } else if (*kind != "arrival" && *kind != "reject" && *kind != "depart" &&
             *kind != "evict" && *kind != "admit" && *kind != "deny") {
    bad_trace("unknown event kind '" + std::string(*kind) + "'", line);
  }
}

}  // namespace

Packing replay_packing(const std::vector<std::string>& lines) {
  PackingRecorder recorder;
  for (const std::string& line : lines) feed(recorder, line);
  return std::move(recorder).packing();
}

Packing replay_packing(std::istream& is) {
  PackingRecorder recorder;
  std::string line;
  while (std::getline(is, line)) feed(recorder, line);
  return std::move(recorder).packing();
}

Packing replay_packing_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("replay_packing_file: cannot open '" + path +
                             "'");
  }
  return replay_packing(in);
}

}  // namespace dvbp::obs

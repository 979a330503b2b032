// The trace subsystem's contract suite (src/trace/, docs/TRACES.md):
//
//  * Round-trip: instance -> binary trace -> materialize() is bit-exact
//    (raw IEEE-754 columns, no text), tenants included.
//  * Streaming: TraceCursor emits exactly build_event_stream() order, and
//    replay_trace() matches simulate() bin for bin -- cost, bin count and
//    the full packing hash -- for all ten registered policies.
//  * Ingest: materialize() and Instance::sort_by_arrival() give exactly
//    what adding every row and then std::stable_sort gives, on arrival
//    ties too, and a written trace's stored CRC is pinned.
//  * Hostile input: EVERY truncation length and EVERY single-byte
//    corruption of a valid file is rejected with TraceError at open; the
//    reader never walks unvalidated bytes.
//  * CSV ingestion: header detection, comment/blank skipping, tenant
//    mapping, skip-and-count vs strict.
//  * Reduction: the emitted OPT interval is sound --
//    streaming lower bound <= OPT(original) <= offline_opt(reduced) --
//    and the streaming Lemma-1 sweep equals opt/lower_bounds.hpp exactly.
//  * IndexList (core/pool.hpp): the pooled list under MoveToFront's MRU
//    order keeps std::list semantics through the free-list recycling.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/event.hpp"
#include "core/instance.hpp"
#include "core/instance_stats.hpp"
#include "core/policies/registry.hpp"
#include "core/pool.hpp"
#include "core/simulator.hpp"
#include "gen/registry.hpp"
#include "gen/uniform.hpp"
#include "opt/lower_bounds.hpp"
#include "opt/offline_opt.hpp"
#include "packing_hash.hpp"
#include "stats/rng.hpp"
#include "trace/convert.hpp"
#include "trace/format.hpp"
#include "trace/reader.hpp"
#include "trace/reduce.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

namespace dvbp::trace {
namespace {

constexpr std::uint64_t kPolicySeed = 0xD1CEu;

const char* const kPolicies[] = {
    "MoveToFront", "FirstFit",        "BestFit",     "NextFit",
    "LastFit",     "RandomFit",       "WorstFit",    "MinExtensionFit",
    "HarmonicFit", "DurationClassFit"};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

Instance small_instance(std::size_t n, std::size_t d,
                        std::uint64_t seed = 0xBEEF) {
  gen::UniformParams params;
  params.n = n;
  params.d = d;
  params.mu = 8;
  params.span = 50;
  params.bin_size = 6;
  return gen::uniform_instance(params, seed);
}

std::vector<std::uint8_t> slurp_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void dump_bytes(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class TraceFile : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }
  std::vector<std::string> cleanup_;
};

// ---------------------------------------------------------------------------
// Round-trip

TEST_F(TraceFile, InstanceRoundTripIsBitExact) {
  Instance inst = small_instance(200, 3);
  // Tenant labels survive the round trip too.
  for (ItemId i = 0; i < inst.size(); ++i) {
    inst.set_tenant(i, static_cast<TenantId>(i % 5));
  }
  const std::string path = track(temp_path("trace_roundtrip.trc"));
  TraceWriter::write_instance(inst, path);

  TraceReader reader(path);
  ASSERT_EQ(reader.size(), inst.size());
  ASSERT_EQ(reader.dim(), inst.dim());
  EXPECT_TRUE(reader.has_tenants());

  const Instance back = reader.materialize();
  ASSERT_EQ(back.size(), inst.size());
  ASSERT_EQ(back.dim(), inst.dim());
  for (ItemId i = 0; i < inst.size(); ++i) {
    const Item& a = inst[i];
    const Item& b = back[i];
    EXPECT_EQ(a.id, b.id);
    // Bit-exact: compare the stored doubles with ==, not a tolerance.
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.departure, b.departure);
    EXPECT_EQ(a.tenant, b.tenant);
    for (std::size_t j = 0; j < inst.dim(); ++j) {
      EXPECT_EQ(a.size[j], b.size[j]);
    }
    // The zero-copy accessors agree with the materialized item.
    EXPECT_EQ(reader.arrival(i), a.arrival);
    EXPECT_EQ(reader.departure(i), a.departure);
    EXPECT_EQ(reader.tenant(i), a.tenant);
    for (std::size_t j = 0; j < inst.dim(); ++j) {
      EXPECT_EQ(reader.demand(i, j), a.size[j]);
    }
  }
}

TEST_F(TraceFile, WriterSortsByArrival) {
  TraceWriter writer(1);
  RVec s(1);
  s[0] = 0.5;
  writer.add(5.0, 9.0, s);
  writer.add(1.0, 2.0, s);
  writer.add(3.0, 7.0, s);
  const std::string path = track(temp_path("trace_sorted.trc"));
  writer.write(path);
  TraceReader reader(path);
  ASSERT_EQ(reader.size(), 3u);
  EXPECT_EQ(reader.arrival(0), 1.0);
  EXPECT_EQ(reader.arrival(1), 3.0);
  EXPECT_EQ(reader.arrival(2), 5.0);
  EXPECT_EQ(reader.first_arrival(), 1.0);
  EXPECT_EQ(reader.last_departure(), 9.0);
}

TEST_F(TraceFile, EmptyTraceRoundTrips) {
  TraceWriter writer(2);
  const std::string path = track(temp_path("trace_empty.trc"));
  writer.write(path);
  TraceReader reader(path);
  EXPECT_TRUE(reader.empty());
  EXPECT_EQ(reader.dim(), 2u);
  TraceCursor cursor(reader);
  TraceEvent ev;
  EXPECT_FALSE(cursor.next(ev));
  EXPECT_EQ(reader.materialize().size(), 0u);
}

TEST_F(TraceFile, WriterRejectsBadItems) {
  TraceWriter writer(2);
  RVec ok(2);
  ok[0] = ok[1] = 0.5;
  EXPECT_THROW(writer.add(1.0, 1.0, ok), TraceError);   // empty interval
  EXPECT_THROW(writer.add(-1.0, 1.0, ok), TraceError);  // negative arrival
  RVec wrong_dim(3);
  EXPECT_THROW(writer.add(0.0, 1.0, wrong_dim), TraceError);
  RVec too_big(2);
  too_big[0] = 1.5;
  EXPECT_THROW(writer.add(0.0, 1.0, too_big), TraceError);
  writer.add(0.0, 1.0, ok);  // still usable after rejections
  EXPECT_EQ(writer.items(), 1u);
}

// ---------------------------------------------------------------------------
// Ingest: one-pass materialize() and the arrival sort

/// Many rows per arrival time: integer times over a short span, as a dense
/// uniform replay has, with tenant labels so every field is compared.
Instance tied_instance(std::size_t n, std::uint64_t seed) {
  gen::UniformParams params;
  params.n = n;
  params.d = 3;
  params.mu = 10;
  params.span = 40;  // 31 distinct arrival times
  params.bin_size = 100;
  Instance inst = gen::uniform_instance(params, seed);
  for (ItemId i = 0; i < inst.size(); ++i) {
    inst.set_tenant(i, static_cast<TenantId>(i % 7));
  }
  return inst;
}

/// std::stable_sort by arrival, ids renumbered to positions: the order
/// Instance::sort_by_arrival and TraceWriter::write promise.
std::vector<Item> stable_sorted(std::vector<Item> items) {
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].id = static_cast<ItemId>(i);
  }
  return items;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field for field, doubles by their bits.
void expect_same_items(const std::vector<Item>& want, const Instance& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Item& a = want[i];
    const Item& b = got[i];
    ASSERT_EQ(a.id, b.id) << "row " << i;
    ASSERT_EQ(bits(a.arrival), bits(b.arrival)) << "row " << i;
    ASSERT_EQ(bits(a.departure), bits(b.departure)) << "row " << i;
    ASSERT_EQ(a.tenant, b.tenant) << "row " << i;
    ASSERT_EQ(a.size.dim(), b.size.dim()) << "row " << i;
    for (std::size_t j = 0; j < a.size.dim(); ++j) {
      ASSERT_EQ(bits(a.size[j]), bits(b.size[j])) << "row " << i;
    }
  }
}

TEST_F(TraceFile, MaterializeEqualsAddThenStableSortOnTiedArrivals) {
  const Instance inst = tied_instance(4000, 0x71E5);
  const std::string path = track(temp_path("trace_ties.trc"));
  TraceWriter::write_instance(inst, path);
  TraceReader reader(path);

  // What materialize() once built: every row added in file order, then a
  // stable sort by arrival.
  std::vector<Item> rows;
  for (std::size_t i = 0; i < reader.size(); ++i) {
    rows.push_back(reader.item(i));
  }
  const std::vector<Item> want = stable_sorted(rows);

  const Instance got = reader.materialize();
  EXPECT_EQ(got.dim(), reader.dim());
  expect_same_items(want, got);
  expect_same_items(inst.items(), got);
}

TEST_F(TraceFile, ShuffledTiesSortLikeStableSort) {
  // Shuffle a tied instance and label each row with its shuffled position,
  // so two rows that share an arrival are never interchangeable.
  std::vector<Item> shuffled = tied_instance(4000, 0x5A1E).items();
  Xoshiro256pp rng(0xD15C);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(shuffled[i - 1], shuffled[j]);
  }
  Instance inst(3);
  TraceWriter writer(3, /*with_tenants=*/true);
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    Item& r = shuffled[i];
    r.id = static_cast<ItemId>(i);
    r.tenant = static_cast<TenantId>(i);
    inst.add(r.arrival, r.departure, r.size);
    inst.set_tenant(r.id, r.tenant);
    writer.add(r.arrival, r.departure, r.size, r.tenant);
  }
  const std::vector<Item> want = stable_sorted(shuffled);

  inst.sort_by_arrival();
  expect_same_items(want, inst);

  // The writer's index sort keeps the same order on the way to disk.
  const std::string path = track(temp_path("trace_shuffled_ties.trc"));
  writer.write(path);
  expect_same_items(want, TraceReader(path).materialize());
}

TEST_F(TraceFile, WrittenTraceCrcIsPinned) {
  // The stored CRC of a trace from a fixed generator seed: it covers every
  // byte before it, so it pins the whole file against any change to the
  // writer's layout, its sort or serial::crc32 itself.
  const Instance inst = tied_instance(1000, 7);
  const std::string path = track(temp_path("trace_pinned.trc"));
  TraceWriter::write_instance(inst, path);
  const std::vector<std::uint8_t> bytes = slurp_bytes(path);
  ASSERT_GE(bytes.size(), 4u);
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - 4, 4);
  EXPECT_EQ(bytes.size(), 44092u);
  EXPECT_EQ(stored, 0x8171AFEAu);
}

// ---------------------------------------------------------------------------
// Streaming: cursor order and replay parity

/// Arrivals four to an instant and departures on integer times, so
/// several rows depart at one instant, later rows first within an arrival
/// group, landing on other rows' arrival times.
Instance tie_heavy_instance() {
  Instance inst(2);
  const std::size_t n = 60;
  for (std::size_t i = 0; i < n; ++i) {
    const Time arrival = static_cast<Time>(i / 4);
    const Time departure =
        arrival + 1.0 + static_cast<Time>((n - 1 - i) % 5);
    inst.add(arrival, departure, RVec{0.25, 0.5});
  }
  return inst;
}

/// Real-valued times, so every byte of a departure's bits varies; a
/// fifth of the rows depart exactly when the row before does, and another
/// fifth one ulp before or after it.
Instance real_time_instance() {
  Instance inst(1);
  Xoshiro256pp rng(0x7135);
  Time arrival = 0.0;
  Time last_departure = 0.0;
  for (std::size_t i = 0; i < 400; ++i) {
    arrival += rng.uniform() * 0.5;
    Time departure = arrival + 1e-3 + rng.uniform() * 40.0;
    const double u = rng.uniform();
    if (last_departure > arrival + 1.0 && u < 0.4) {
      departure = u < 0.2   ? last_departure
                  : u < 0.3 ? std::nextafter(last_departure, 0.0)
                            : std::nextafter(last_departure, 1e300);
    }
    inst.add(arrival, departure, RVec{rng.uniform()});
    last_departure = departure;
  }
  return inst;
}

/// Every event a fresh cursor over `reader` emits.
std::vector<TraceEvent> cursor_stream(const TraceReader& reader) {
  TraceCursor cursor(reader);
  std::vector<TraceEvent> events;
  TraceEvent ev;
  while (cursor.next(ev)) events.push_back(ev);
  EXPECT_EQ(cursor.events_emitted(), events.size());
  return events;
}

void expect_event_stream(const std::vector<TraceEvent>& got,
                         const std::vector<Event>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].time, expected[k].time) << "event " << k;
    EXPECT_EQ(got[k].kind, expected[k].kind) << "event " << k;
    EXPECT_EQ(got[k].item, expected[k].item) << "event " << k;
  }
}

TEST_F(TraceFile, CursorEmitsBuildEventStreamOrder) {
  for (const Instance& inst : {small_instance(300, 2), tie_heavy_instance(),
                               real_time_instance()}) {
    const std::string path = track(temp_path("trace_cursor.trc"));
    TraceWriter::write_instance(inst, path);
    TraceReader reader(path);
    expect_event_stream(cursor_stream(reader), build_event_stream(inst));

    // reset() rewinds to an identical stream.
    TraceCursor cursor(reader);
    TraceEvent ev;
    while (cursor.next(ev)) {
    }
    cursor.reset();
    std::size_t again = 0;
    while (cursor.next(ev)) ++again;
    EXPECT_EQ(again, 2 * inst.size());
  }
}

TEST_F(TraceFile, CursorFollowsAMovedReader) {
  const Instance inst = tie_heavy_instance();
  const std::string path = track(temp_path("trace_moved.trc"));
  TraceWriter::write_instance(inst, path);
  const std::vector<Event> expected = build_event_stream(inst);

  TraceReader reader(path);
  TraceReader moved(std::move(reader));
  expect_event_stream(cursor_stream(moved), expected);
  EXPECT_TRUE(cursor_stream(reader).empty());

  TraceReader assigned(path);
  assigned = std::move(moved);
  expect_event_stream(cursor_stream(assigned), expected);
  EXPECT_TRUE(cursor_stream(moved).empty());
}

TEST_F(TraceFile, ReplayMatchesSimulateForAllPolicies) {
  for (const std::size_t d : {1u, 2u, 5u}) {
    const Instance inst = small_instance(250, d, 0xFACE + d);
    const std::string path =
        track(temp_path("trace_parity_d" + std::to_string(d) + ".trc"));
    TraceWriter::write_instance(inst, path);
    TraceReader reader(path);

    for (const char* policy_name : kPolicies) {
      const SimResult batch = simulate(inst, policy_name, {}, kPolicySeed);

      const PolicyPtr policy = make_policy(policy_name, kPolicySeed);
      Packing packing;
      ReplayOptions opts;
      opts.packing_out = &packing;
      const ReplayResult replay = replay_trace(reader, *policy, opts);

      SCOPED_TRACE(std::string(policy_name) + " d=" + std::to_string(d));
      EXPECT_EQ(replay.items, inst.size());
      EXPECT_EQ(replay.events, 2 * inst.size());
      EXPECT_EQ(replay.bins_opened, batch.bins_opened);
      EXPECT_EQ(replay.max_open_bins, batch.max_open_bins);
      // Bit-exact cost and the full order-sensitive packing hash: the
      // streamed replay made the same decision at every single event.
      EXPECT_EQ(replay.cost, batch.cost);
      EXPECT_EQ(packing_hash(packing), packing_hash(batch.packing));
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile input: every truncation, every byte flip

TEST_F(TraceFile, EveryTruncationIsRejected) {
  Instance inst = small_instance(8, 2);
  for (ItemId i = 0; i < inst.size(); ++i) inst.set_tenant(i, 1);
  const std::string path = track(temp_path("trace_fuzz_base.trc"));
  TraceWriter::write_instance(inst, path);
  const std::vector<std::uint8_t> bytes = slurp_bytes(path);
  ASSERT_GT(bytes.size(), 0u);

  const std::string mutant = track(temp_path("trace_fuzz_trunc.trc"));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    dump_bytes(mutant,
               std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + len));
    EXPECT_THROW(TraceReader r(mutant), TraceError)
        << "prefix of " << len << " bytes accepted";
  }
}

TEST_F(TraceFile, EveryByteFlipIsRejected) {
  Instance inst = small_instance(8, 2);
  for (ItemId i = 0; i < inst.size(); ++i) inst.set_tenant(i, 1);
  const std::string path = track(temp_path("trace_fuzz_base2.trc"));
  TraceWriter::write_instance(inst, path);
  const std::vector<std::uint8_t> bytes = slurp_bytes(path);

  const std::string mutant = track(temp_path("trace_fuzz_flip.trc"));
  std::vector<std::uint8_t> corrupted = bytes;
  for (std::size_t off = 0; off < bytes.size(); ++off) {
    corrupted[off] = bytes[off] ^ 0xFFu;
    dump_bytes(mutant, corrupted);
    // Any single flipped byte is inside the CRC's coverage (or is the CRC
    // itself), so open must fail -- possibly earlier, on a layout check.
    EXPECT_THROW(TraceReader r(mutant), TraceError)
        << "flip at offset " << off << " accepted";
    corrupted[off] = bytes[off];
  }
}

TEST_F(TraceFile, TrailingGarbageIsRejected) {
  const Instance inst = small_instance(8, 2);
  const std::string path = track(temp_path("trace_fuzz_tail.trc"));
  TraceWriter::write_instance(inst, path);
  std::vector<std::uint8_t> bytes = slurp_bytes(path);
  bytes.push_back(0);
  const std::string mutant = track(temp_path("trace_fuzz_tail2.trc"));
  dump_bytes(mutant, bytes);
  EXPECT_THROW(TraceReader r(mutant), TraceError);
}

TEST_F(TraceFile, MissingFileIsRejected) {
  EXPECT_THROW(TraceReader r(temp_path("no_such_trace.trc")), TraceError);
}

// ---------------------------------------------------------------------------
// CSV conversion

TEST_F(TraceFile, ConvertCsvSkipsHeaderCommentsAndBlankLines) {
  std::istringstream csv(
      "vmid,start,end,core,mem\n"
      "# synthetic sample\n"
      "\n"
      "vm-a,0.0,10.0,0.25,0.5\n"
      "vm-b,1.0,4.0,0.5,0.125\n"
      "vm-a,2.0,8.0,0.75,0.25\n");
  const std::string path = track(temp_path("trace_csv.trc"));
  ConvertOptions opts;
  opts.tenants = true;
  const ConvertStats stats = convert_csv(csv, path, opts);
  EXPECT_EQ(stats.rows_read, 3u);
  EXPECT_EQ(stats.items_written, 3u);
  EXPECT_EQ(stats.rows_skipped, 0u);
  EXPECT_EQ(stats.dim, 2u);
  EXPECT_EQ(stats.tenants, 2u);  // vm-a, vm-b

  TraceReader reader(path);
  ASSERT_EQ(reader.size(), 3u);
  EXPECT_EQ(reader.dim(), 2u);
  ASSERT_TRUE(reader.has_tenants());
  // Rows are sorted by arrival; vmids map to dense labels in
  // first-appearance order: vm-a -> 0, vm-b -> 1.
  EXPECT_EQ(reader.arrival(0), 0.0);
  EXPECT_EQ(reader.tenant(0), 0u);
  EXPECT_EQ(reader.tenant(1), 1u);
  EXPECT_EQ(reader.tenant(2), 0u);
  EXPECT_EQ(reader.demand(0, 0), 0.25);
  EXPECT_EQ(reader.demand(0, 1), 0.5);
  EXPECT_EQ(reader.demand(2, 1), 0.25);
}

TEST_F(TraceFile, ConvertCsvSkipsBadRowsUnlessStrict) {
  const std::string bad =
      "vm-a,0,10,0.5\n"
      "vm-b,5,2,0.5\n"    // end <= start
      "vm-c,1,3,1.75\n"   // demand above capacity
      "vm-d,2,4\n"        // missing demand column
      "vm-e,3,6,0.25\n";
  {
    std::istringstream csv(bad);
    const std::string path = track(temp_path("trace_csv_skip.trc"));
    const ConvertStats stats = convert_csv(csv, path);
    EXPECT_EQ(stats.rows_read, 5u);
    EXPECT_EQ(stats.items_written, 2u);
    EXPECT_EQ(stats.rows_skipped, 3u);
    TraceReader reader(path);
    EXPECT_EQ(reader.size(), 2u);
    EXPECT_FALSE(reader.has_tenants());
  }
  {
    std::istringstream csv(bad);
    ConvertOptions opts;
    opts.strict = true;
    const std::string path = track(temp_path("trace_csv_strict.trc"));
    EXPECT_THROW(convert_csv(csv, path, opts), TraceError);
  }
}

TEST_F(TraceFile, ConvertedCsvReplaysLikeTheEquivalentInstance) {
  // The converter's output must be the same workload the core engine sees:
  // build the equivalent Instance by hand and compare FirstFit costs.
  std::istringstream csv(
      "a,0,10,0.6\n"
      "b,1,5,0.6\n"
      "c,2,8,0.3\n"
      "d,6,9,0.8\n");
  const std::string path = track(temp_path("trace_csv_replay.trc"));
  convert_csv(csv, path);

  Instance inst(1);
  const double rows[4][3] = {
      {0, 10, 0.6}, {1, 5, 0.6}, {2, 8, 0.3}, {6, 9, 0.8}};
  for (const auto& row : rows) {
    RVec s(1);
    s[0] = row[2];
    inst.add(row[0], row[1], s);
  }
  inst.sort_by_arrival();

  TraceReader reader(path);
  const PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  const ReplayResult replay = replay_trace(reader, *policy);
  const SimResult batch = simulate(inst, "FirstFit", {}, kPolicySeed);
  EXPECT_EQ(replay.cost, batch.cost);
  EXPECT_EQ(replay.bins_opened, batch.bins_opened);
}

TEST_F(TraceFile, CommittedSampleRoundTripsForAllPolicies) {
  // The committed sample pair (data/sample_azure_1k.{csv,trc}) is pinned:
  // re-converting the CSV reproduces the committed binary byte for byte,
  // and streaming the binary through every registered policy matches the
  // materialized-Instance simulation bit for bit.
  std::ifstream csv(DVBP_SAMPLE_CSV);
  ASSERT_TRUE(csv.is_open()) << DVBP_SAMPLE_CSV;
  const std::string reconverted = track(temp_path("sample_reconvert.trc"));
  ConvertOptions copts;
  copts.tenants = true;
  convert_csv(csv, reconverted, copts);
  EXPECT_EQ(slurp_bytes(reconverted), slurp_bytes(DVBP_SAMPLE_TRC));

  TraceReader reader(DVBP_SAMPLE_TRC);
  const Instance inst = reader.materialize();
  for (const char* policy_name : kPolicies) {
    SCOPED_TRACE(policy_name);
    const SimResult batch = simulate(inst, policy_name, {}, kPolicySeed);
    const PolicyPtr policy = make_policy(policy_name, kPolicySeed);
    Packing packing;
    ReplayOptions opts;
    opts.packing_out = &packing;
    const ReplayResult replay = replay_trace(reader, *policy, opts);
    EXPECT_EQ(replay.cost, batch.cost);
    EXPECT_EQ(replay.bins_opened, batch.bins_opened);
    EXPECT_EQ(packing_hash(packing), packing_hash(batch.packing));
  }
}

// ---------------------------------------------------------------------------
// Reduction: sound OPT interval

TEST_F(TraceFile, StreamingBoundsMatchBatchLowerBounds) {
  const Instance inst = small_instance(400, 2);
  const std::string path = track(temp_path("trace_bounds.trc"));
  TraceWriter::write_instance(inst, path);
  TraceReader reader(path);
  const StreamBounds stream = streaming_lower_bounds(reader);
  const LowerBounds batch = lower_bounds(inst);
  // Identical arithmetic over identical bits: exact equality, no tolerance.
  EXPECT_EQ(stream.height, batch.height);
  EXPECT_EQ(stream.utilization, batch.utilization);
  EXPECT_EQ(stream.span, batch.span);
  EXPECT_EQ(stream.best(), batch.best());
}

TEST_F(TraceFile, LowerBoundBitsArePinned) {
  // The three Lemma-1 height sweeps (opt::lb_height, the streaming bounds
  // and analyze()) share one accumulator; the test above compares them
  // with each other, so these literal bits catch a change they share.
  // perfbench's cost_ratio divides by streaming_lower_bounds().best().
  struct Pin {
    const char* generator;
    double height;
    double span;
    double utilization;
  };
  for (const Pin& pin :
       {Pin{"uniform", 0x1.1c8p+10, 0x1.9p+5, 0x1.f4c71c71c71c5p+8},
        Pin{"bursty", 0x1.188p+10, 0x1.6p+5, 0x1.f2aaaaaaaaaa7p+8},
        Pin{"diurnal", 0x1.0b4p+10, 0x1.88p+5, 0x1.d49c71c71c71fp+8}}) {
    SCOPED_TRACE(pin.generator);
    gen::UniformParams params;
    params.n = 400;
    params.d = 3;
    params.mu = 8;
    params.span = 50;
    params.bin_size = 6;
    const Instance inst = gen::make_generator(pin.generator, params, 11)(0);
    const std::string path = track(temp_path("trace_pinned_bounds.trc"));
    TraceWriter::write_instance(inst, path);
    const StreamBounds stream = streaming_lower_bounds(TraceReader(path));
    EXPECT_EQ(lb_height(inst), pin.height);
    EXPECT_EQ(analyze(inst).height_bound, pin.height);
    EXPECT_EQ(stream.height, pin.height);
    EXPECT_EQ(stream.span, pin.span);
    EXPECT_EQ(stream.utilization, pin.utilization);
  }
  // Real-valued times: every addition of the sweep shows in the bits.
  TraceReader sample(DVBP_SAMPLE_TRC);
  const Instance inst = sample.materialize();
  const StreamBounds stream = streaming_lower_bounds(sample);
  EXPECT_EQ(lb_height(inst), 0x1.88e6ed604188cp+19);
  EXPECT_EQ(analyze(inst).height_bound, 0x1.88e6ed604188cp+19);
  EXPECT_EQ(stream.height, 0x1.88e6ed604188cp+19);
  EXPECT_EQ(stream.span, 0x1.f0342b020c49cp+15);
  EXPECT_EQ(stream.utilization, 0x1.9647d9439580ep+18);
}

TEST_F(TraceFile, ReduceBracketsTheTrueOptimum) {
  // Small enough that offline_opt is exact on BOTH the original and the
  // reduced instance, so the soundness chain is checked against the real
  // OPT, not an estimate:  lb(original) <= OPT(original) <= OPT(reduced).
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Instance inst = small_instance(14, 2, 0xB0B + seed);
    const std::string path =
        track(temp_path("trace_reduce_" + std::to_string(seed) + ".trc"));
    TraceWriter::write_instance(inst, path);
    TraceReader reader(path);

    ReduceOptions opts;
    opts.size_grid = 4;
    opts.time_cells = 8;
    const std::string out =
        track(temp_path("trace_reduced_" + std::to_string(seed) + ".trc"));
    const ReduceResult res = reduce_trace(reader, out, opts);
    EXPECT_EQ(res.original_items, inst.size());
    EXPECT_LE(res.reduced_items, res.original_items);
    EXPECT_EQ(res.dim, 2u);

    const OfflineOptResult original_opt = offline_opt(inst);
    ASSERT_TRUE(original_opt.exact);
    TraceReader reduced(out);
    const OfflineOptResult reduced_opt = offline_opt(reduced.materialize());
    ASSERT_TRUE(reduced_opt.exact);

    SCOPED_TRACE("seed " + std::to_string(seed));
    // Lower end: the streaming Lemma-1 bound on the ORIGINAL trace.
    EXPECT_LE(res.original_bounds.best(), original_opt.cost + 1e-9);
    // Upper end: the reduction only ever makes the instance harder.
    EXPECT_LE(original_opt.cost, reduced_opt.cost + 1e-9);
  }
}

TEST_F(TraceFile, ReduceMergesIdenticalItems) {
  // 40 copies of the same quarter-bin item on the same interval collapse
  // into ceil(40 / m) stacks with m = floor(g / units) members each.
  TraceWriter writer(1);
  RVec s(1);
  s[0] = 0.25;
  for (int i = 0; i < 40; ++i) writer.add(0.0, 10.0, s);
  const std::string path = track(temp_path("trace_merge.trc"));
  writer.write(path);
  TraceReader reader(path);

  ReduceOptions opts;
  opts.size_grid = 8;  // 0.25 -> 2 units; m = floor(8/2) = 4 per stack
  opts.time_cells = 4;
  const std::string out = track(temp_path("trace_merged.trc"));
  const ReduceResult res = reduce_trace(reader, out, opts);
  EXPECT_EQ(res.original_items, 40u);
  EXPECT_EQ(res.groups, 1u);
  EXPECT_EQ(res.reduced_items, 10u);  // 40 / 4

  TraceReader reduced(out);
  ASSERT_EQ(reduced.size(), 10u);
  for (std::size_t i = 0; i < reduced.size(); ++i) {
    // Stacked demand is exactly 4 * 2/8 = 1.0 -- still packable.
    EXPECT_EQ(reduced.demand(i, 0), 1.0);
    // Widened outward: the stack's interval covers every member's.
    EXPECT_LE(reduced.arrival(i), 0.0);
    EXPECT_GE(reduced.departure(i), 10.0);
  }
}

TEST_F(TraceFile, ReduceMakesHundredThousandEventsExactlySolvable) {
  // The headline use case (ISSUE/ROADMAP): a 100k-event trace whose raw
  // form no exact solver could touch is reduced to an instance vbp_exact
  // solves, yielding a true OPT interval for the original. The workload is
  // cloud-shaped: tens of thousands of near-identical small VMs at modest
  // concurrent load -- exactly where stacking pays (each group of
  // identical (size, interval) items collapses to ~count/g stacks).
  constexpr std::size_t kItems = 50'000;  // 100k events
  TraceWriter writer(2);
  RVec s(2);
  std::uint64_t rng = 0x5EED5EED;
  auto next_u01 = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(rng >> 11) * 0x1p-53;
  };
  for (std::size_t i = 0; i < kItems; ++i) {
    // Poisson-ish arrivals at rate 50/unit over span 1000, lifetime ~2
    // units: ~100 concurrently active 1/16-bin items = ~7 bins of load.
    const Time arrival = next_u01() * 1000.0;
    const Time departure = arrival + 0.5 + 3.0 * next_u01();
    s[0] = 0.05 + 0.01 * next_u01();  // rounds up to 1/16 at grid 16
    s[1] = 0.04 + 0.02 * next_u01();
    writer.add(arrival, departure, s);
  }
  const std::string path = track(temp_path("trace_100k.trc"));
  writer.write(path);
  TraceReader reader(path);
  ASSERT_EQ(2 * reader.size(), 100'000u);

  ReduceOptions opts;
  opts.size_grid = 16;
  opts.time_cells = 4;
  const std::string out = track(temp_path("trace_100k_reduced.trc"));
  const ReduceResult res = reduce_trace(reader, out, opts);
  // The reduction must shrink by (nearly) the full stacking factor
  // m = floor(g / units) = 16...
  EXPECT_LT(res.reduced_items, kItems / 10);

  // ...down to something the exact solver finishes, giving a real OPT
  // bracket for the 100k-event original.
  TraceReader reduced(out);
  const OfflineOptResult opt = offline_opt(reduced.materialize());
  EXPECT_TRUE(opt.exact);
  EXPECT_GT(opt.cost, 0.0);
  EXPECT_LE(res.original_bounds.best(), opt.cost + 1e-9);
}

TEST_F(TraceFile, ReduceRejectsZeroGrids) {
  const Instance inst = small_instance(4, 1);
  const std::string path = track(temp_path("trace_badgrid.trc"));
  TraceWriter::write_instance(inst, path);
  TraceReader reader(path);
  ReduceOptions opts;
  opts.size_grid = 0;
  EXPECT_THROW(reduce_trace(reader, track(temp_path("x.trc")), opts),
               TraceError);
  opts.size_grid = 8;
  opts.time_cells = 0;
  EXPECT_THROW(reduce_trace(reader, track(temp_path("y.trc")), opts),
               TraceError);
}

// ---------------------------------------------------------------------------
// IndexList (core/pool.hpp): the pooled MRU list under MoveToFront

TEST(IndexListTest, PushFrontEraseMoveToFront) {
  IndexList list;
  EXPECT_TRUE(list.empty());
  const std::uint32_t a = list.push_front(10);
  const std::uint32_t b = list.push_front(20);
  const std::uint32_t c = list.push_front(30);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.front(), 30u);

  auto order = [&list] {
    std::vector<BinId> out;
    for (std::uint32_t n = list.head(); n != IndexList::kNil;
         n = list.next(n)) {
      out.push_back(list.value(n));
    }
    return out;
  };
  EXPECT_EQ(order(), (std::vector<BinId>{30, 20, 10}));

  list.move_to_front(a);
  EXPECT_EQ(order(), (std::vector<BinId>{10, 30, 20}));
  list.move_to_front(a);  // already front: no-op
  EXPECT_EQ(order(), (std::vector<BinId>{10, 30, 20}));

  list.erase(c);  // middle
  EXPECT_EQ(order(), (std::vector<BinId>{10, 20}));
  list.erase(a);  // head
  EXPECT_EQ(order(), (std::vector<BinId>{20}));
  list.erase(b);  // last
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
}

TEST(IndexListTest, PushBackBuildsFifoOrder) {
  IndexList list;
  list.push_back(1);
  list.push_back(2);
  const std::uint32_t tail = list.push_back(3);
  EXPECT_EQ(list.front(), 1u);
  list.move_to_front(tail);
  EXPECT_EQ(list.front(), 3u);
  EXPECT_EQ(list.size(), 3u);
}

TEST(IndexListTest, FreeListRecyclesNodes) {
  IndexList list;
  const std::uint32_t a = list.push_front(1);
  list.erase(a);
  // The freed slab slot is handed back for the next insertion.
  const std::uint32_t b = list.push_front(2);
  EXPECT_EQ(b, a);
  EXPECT_EQ(list.front(), 2u);

  list.push_front(3);
  list.clear();
  EXPECT_TRUE(list.empty());
  // clear() threads every node onto the free list; churn after clear must
  // not grow the slab.
  for (int round = 0; round < 100; ++round) {
    const std::uint32_t x = list.push_front(static_cast<BinId>(round));
    const std::uint32_t y = list.push_back(static_cast<BinId>(round + 1));
    EXPECT_LT(x, 2u);
    EXPECT_LT(y, 2u);
    list.erase(x);
    list.erase(y);
  }
}

}  // namespace
}  // namespace dvbp::trace

// Unit tests for src/persist/: serialization primitives, journal wire
// format and torn-tail handling, checkpoint atomicity/fallback, the
// per-policy save/restore contract (bit-exact futures), and the
// DurableDispatcher reopen path. The crash-point fuzz lives in
// test_persist_recovery.cpp.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/policies/registry.hpp"
#include "core/serial.hpp"
#include "core/simulator.hpp"
#include "gen/uniform.hpp"
#include "packing_hash.hpp"
#include "persist/checkpoint.hpp"
#include "persist/durable.hpp"
#include "persist/fault.hpp"
#include "persist/journal.hpp"
#include "stats/rng.hpp"

namespace dvbp {
namespace {

namespace fs = std::filesystem;
using persist::FsyncPolicy;
using persist::JournalRecord;
using persist::JournalWriter;
using persist::OpKind;

constexpr std::uint64_t kPolicySeed = 0xD1CEu;

const char* const kPolicies[] = {
    "MoveToFront", "FirstFit",        "BestFit",     "NextFit",
    "LastFit",     "RandomFit",       "WorstFit",    "MinExtensionFit",
    "HarmonicFit", "DurationClassFit"};

/// Self-cleaning unique temp directory (not created; the code under test
/// is responsible for create_directories).
struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("dvbp_persist_test_" + std::to_string(++counter) + "_" +
            std::to_string(static_cast<unsigned>(::getpid())));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

Instance test_instance(std::size_t n = 240) {
  gen::UniformParams params;
  params.d = 2;
  params.n = n;
  params.mu = 12;
  params.span = 100;
  params.bin_size = 9;
  return gen::uniform_instance(params, 0xFEED);
}

/// Feeds events [begin, end) to a serial dispatcher. Instances are
/// arrival-sorted, so the dense JobId equals the item id.
void feed(Dispatcher& d, const Instance& inst,
          const std::vector<Event>& events, std::size_t begin,
          std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const Event& ev = events[i];
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      d.arrive(item.arrival, item.size, item.departure);
    } else {
      d.depart(ev.time, item.id);
    }
  }
}

TEST(Serial, WriterReaderRoundtrip) {
  serial::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-0.1);
  w.str("packing");
  w.blob({1, 2, 3});
  serial::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.1));
  EXPECT_EQ(r.str(), "packing");
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), serial::SerialError);
}

TEST(Serial, Crc32MatchesIeeeCheckValue) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5',
                                '6', '7', '8', '9'};
  EXPECT_EQ(serial::crc32(check, sizeof(check)), 0xCBF43926u);
}

// The reference: the one-table, one-byte-a-step CRC-32 that framed every
// journal, checkpoint, trace and wire message before the sliced loop. Any
// input on which serial::crc32 differs from it would change those bytes.
std::uint32_t bytewise_crc32(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed = 0) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(Serial, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..256 from each start offset 0..7 cover every head alignment
  // and every tail length of an 8-byte-step loop.
  const std::vector<std::uint8_t> bytes = random_bytes(256 + 8, 0xC4C);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      ASSERT_EQ(serial::crc32(bytes.data() + offset, len),
                bytewise_crc32(bytes.data() + offset, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Serial, Crc32MatchesBytewiseReferenceOnMultiMegabyteBuffer) {
  const std::vector<std::uint8_t> bytes =
      random_bytes((std::size_t{3} << 20) + 5, 0xB16);
  EXPECT_EQ(serial::crc32(bytes), bytewise_crc32(bytes.data(), bytes.size()));
  // Constant runs too: all-zero and all-ones blocks stress no table slot
  // the random buffer misses, but they are what sparse files are made of.
  const std::vector<std::uint8_t> zeros(100003, 0x00);
  const std::vector<std::uint8_t> ones(100003, 0xFF);
  EXPECT_EQ(serial::crc32(zeros), bytewise_crc32(zeros.data(), zeros.size()));
  EXPECT_EQ(serial::crc32(ones), bytewise_crc32(ones.data(), ones.size()));
}

TEST(Serial, Crc32ChainsThroughItsSeed) {
  // crc32(b, crc32(a)) == crc32(a || b) at every split point, and for a
  // random seed the sliced loop agrees with the reference too.
  const std::vector<std::uint8_t> bytes = random_bytes(300, 0x5EED);
  const std::uint32_t whole = serial::crc32(bytes);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = serial::crc32(bytes.data(), split);
    ASSERT_EQ(serial::crc32(bytes.data() + split, bytes.size() - split, head),
              whole)
        << "split at " << split;
  }
  Xoshiro256pp rng(0xC0FFEE);
  for (int trial = 0; trial < 64; ++trial) {
    const auto seed = static_cast<std::uint32_t>(rng());
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 299));
    ASSERT_EQ(serial::crc32(bytes.data(), len, seed),
              bytewise_crc32(bytes.data(), len, seed))
        << "seed " << seed << ", length " << len;
  }
}

TEST(Journal, FsyncPolicySpellings) {
  EXPECT_EQ(persist::parse_fsync_policy("always"), FsyncPolicy::kAlways);
  EXPECT_EQ(persist::parse_fsync_policy("interval"),
            FsyncPolicy::kInterval);
  EXPECT_EQ(persist::parse_fsync_policy("none"), FsyncPolicy::kNone);
  EXPECT_THROW(persist::parse_fsync_policy("sometimes"),
               std::invalid_argument);
  EXPECT_EQ(persist::fsync_policy_name(FsyncPolicy::kInterval), "interval");
}

TEST(Journal, AppendCommitScanRoundtrip) {
  TempDir dir;
  RVec size(2);
  size[0] = 0.25;
  size[1] = 0.1;
  {
    JournalWriter writer(dir.str(), 1, {});
    EXPECT_EQ(writer.append(OpKind::kArrive, 1.5, 7, 9.25, &size), 1u);
    EXPECT_EQ(writer.append(OpKind::kDepart, 2.5, 7), 2u);
    EXPECT_EQ(writer.append(OpKind::kAdvance, 3.5, 0), 3u);
    writer.commit();
  }
  const persist::JournalScan scan = persist::scan_journal(dir.str());
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 3u);
  const JournalRecord& arrive = scan.records[0];
  EXPECT_EQ(arrive.seq, 1u);
  EXPECT_EQ(arrive.kind, OpKind::kArrive);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(arrive.time),
            std::bit_cast<std::uint64_t>(1.5));
  EXPECT_EQ(arrive.job, 7u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(arrive.expected_departure),
            std::bit_cast<std::uint64_t>(9.25));
  ASSERT_EQ(arrive.size.dim(), 2u);
  EXPECT_EQ(arrive.size[0], 0.25);
  EXPECT_EQ(arrive.size[1], 0.1);
  EXPECT_EQ(scan.records[1].kind, OpKind::kDepart);
  EXPECT_EQ(scan.records[2].kind, OpKind::kAdvance);
}

TEST(Journal, UncommittedFramesAreNotDurable) {
  TempDir dir;
  {
    JournalWriter writer(dir.str(), 1, {});
    writer.append(OpKind::kAdvance, 1.0, 0);
    writer.commit();
    writer.append(OpKind::kAdvance, 2.0, 0);  // never committed
  }
  EXPECT_EQ(persist::scan_journal(dir.str()).records.size(), 1u);
}

TEST(Journal, TornTailDetectedAndTruncated) {
  TempDir dir;
  {
    JournalWriter writer(dir.str(), 1, {});
    for (int i = 0; i < 3; ++i) {
      writer.append(OpKind::kAdvance, static_cast<Time>(i), 0);
    }
    writer.commit();
  }
  const auto segments = persist::journal_segments(dir.str());
  ASSERT_EQ(segments.size(), 1u);
  {
    std::ofstream out(segments[0], std::ios::binary | std::ios::app);
    out.write("\x05garbage", 8);  // looks like a frame header prefix
  }
  persist::JournalScan scan = persist::scan_journal(dir.str());
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.tail_bytes_discarded, 8u);
  persist::truncate_torn_tail(scan);
  scan = persist::scan_journal(dir.str());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 3u);
  // The truncated segment accepts appends again, at the right sequence.
  {
    JournalWriter writer(dir.str(), 4, {});
    writer.append(OpKind::kAdvance, 9.0, 0);
    writer.commit();
  }
  scan = persist::scan_journal(dir.str());
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records.back().seq, 4u);
}

TEST(Journal, RotateStartsNewSegmentAndDeletesOld) {
  TempDir dir;
  JournalWriter writer(dir.str(), 1, {});
  for (int i = 0; i < 5; ++i) {
    writer.append(OpKind::kAdvance, static_cast<Time>(i), 0);
  }
  writer.commit();
  writer.rotate();
  writer.append(OpKind::kAdvance, 10.0, 0);
  writer.commit();
  EXPECT_EQ(persist::journal_segments(dir.str()).size(), 1u);
  const persist::JournalScan scan = persist::scan_journal(dir.str());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 6u);
}

TEST(Journal, WriterPoisonedAfterInjectedCommitFault) {
  TempDir dir;
  persist::set_fault_hook([](std::string_view point) {
    if (point == "journal.commit.written") {
      throw persist::FaultInjected(point);
    }
  });
  JournalWriter writer(dir.str(), 1, {});
  writer.append(OpKind::kAdvance, 1.0, 0);
  EXPECT_THROW(writer.commit(), persist::FaultInjected);
  persist::clear_fault_hook();
  // Sticky: a torn tail must never be buried under newer frames.
  EXPECT_THROW(writer.append(OpKind::kAdvance, 2.0, 0),
               persist::PersistError);
  EXPECT_THROW(writer.commit(), persist::PersistError);
}

/// This thread's write-type syscalls so far (syscw in /proc/thread-self/io);
/// nullopt where the kernel keeps no per-task I/O accounting.
std::optional<std::uint64_t> thread_write_syscalls() {
  std::ifstream io("/proc/thread-self/io");
  for (std::string key; io >> key;) {
    std::uint64_t value = 0;
    io >> value;
    if (key == "syscw:") return value;
  }
  return std::nullopt;
}

// A commit is one write(2); only an installed fault hook splits it, so
// that journal.commit.torn can leave a partial frame.
TEST(Journal, CommitIsOneWriteWithoutAFaultHook) {
  if (!thread_write_syscalls()) {
    GTEST_SKIP() << "no per-task I/O accounting (/proc/thread-self/io)";
  }
  TempDir dir;
  persist::JournalOptions options;
  options.fsync = FsyncPolicy::kNone;
  JournalWriter writer(dir.str(), 1, options);
  writer.append(OpKind::kAdvance, 1.0, 0);
  writer.append(OpKind::kAdvance, 2.0, 0);
  const std::uint64_t before = *thread_write_syscalls();
  writer.commit();
  EXPECT_EQ(*thread_write_syscalls() - before, 1u);
  EXPECT_EQ(persist::scan_journal(dir.str()).records.size(), 2u);
}

TEST(Checkpoint, RoundtripNewestWinsAndCorruptFallsBack) {
  TempDir dir;
  persist::CheckpointData a;
  a.seq = 10;
  a.policy_name = "FirstFit";
  a.dispatcher_state = {1, 2, 3};
  a.policy_state = {4};
  persist::write_checkpoint(dir.str(), a);
  auto loaded = persist::load_newest_checkpoint(dir.str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 10u);
  EXPECT_EQ(loaded->policy_name, "FirstFit");
  EXPECT_EQ(loaded->dispatcher_state, a.dispatcher_state);
  EXPECT_EQ(loaded->policy_state, a.policy_state);
  EXPECT_TRUE(loaded->extra.empty());

  // A newer checkpoint supersedes (and GCs) the old one.
  persist::CheckpointData b = a;
  b.seq = 20;
  b.policy_state = {9, 9};
  persist::write_checkpoint(dir.str(), b);
  ASSERT_EQ(persist::checkpoint_files(dir.str()).size(), 1u);
  EXPECT_EQ(persist::load_newest_checkpoint(dir.str())->seq, 20u);

  // A corrupt newest file (here: a bogus higher-seq copy with a flipped
  // payload byte) is skipped and load falls back to the older valid one.
  const std::string valid = persist::checkpoint_files(dir.str()).front();
  const std::string bogus =
      dir.str() + "/checkpoint-000000000000001e.ckpt";
  fs::copy_file(valid, bogus);
  {
    std::fstream f(bogus, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(12);
    char byte = 0;
    f.get(byte);
    f.seekp(12);
    f.put(static_cast<char>(byte ^ 0x5A));
  }
  ASSERT_EQ(persist::checkpoint_files(dir.str()).size(), 2u);
  loaded = persist::load_newest_checkpoint(dir.str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 20u) << "corrupt newest must fall back to older";
}

// The save/restore contract, policy by policy: after running a prefix of
// a workload, checkpointed state restored into a fresh dispatcher/policy
// pair must (a) hash bit-identically and (b) make identical decisions on
// the entire suffix. This is the foundation the crash fuzz builds on.
TEST(StateRoundtrip, AllPoliciesBitExactAcrossSaveRestore) {
  const Instance inst = test_instance();
  const std::vector<Event> events = build_event_stream(inst);
  const std::size_t half = events.size() / 2;
  for (const char* name : kPolicies) {
    SCOPED_TRACE(name);
    PolicyPtr policy_a = make_policy(name, kPolicySeed);
    Dispatcher a(inst.dim(), *policy_a);
    PackingRecorder recorder_a;
    a.set_recorder(&recorder_a);
    feed(a, inst, events, 0, half);

    // The recorder travels beside the state, as in a checkpoint's extra
    // blob, so the two histories can be compared at the end.
    serial::Writer disp_out;
    a.save_state(disp_out);
    serial::Writer pol_out;
    policy_a->save_state(pol_out);
    serial::Writer rec_out;
    recorder_a.save_state(rec_out);

    PolicyPtr policy_b = make_policy(name, kPolicySeed + 17);  // different
    Dispatcher b(inst.dim(), *policy_b);
    PackingRecorder recorder_b;
    b.set_recorder(&recorder_b);
    serial::Reader disp_in(disp_out.bytes());
    b.restore_state(disp_in);
    policy_b->reset();
    serial::Reader pol_in(pol_out.bytes());
    policy_b->restore_state(pol_in);
    serial::Reader rec_in(rec_out.bytes());
    recorder_b.restore_state(rec_in);

    ASSERT_EQ(dispatcher_state_hash(a), dispatcher_state_hash(b));
    feed(a, inst, events, half, events.size());
    feed(b, inst, events, half, events.size());
    EXPECT_EQ(dispatcher_state_hash(a), dispatcher_state_hash(b))
        << "futures diverged after restore";
    EXPECT_EQ(packing_hash(recorder_a.packing()),
              packing_hash(recorder_b.packing()))
        << "futures diverged after restore";
  }
}

TEST(StateRoundtrip, RestoreIntoUsedDispatcherThrows) {
  const Instance inst = test_instance(40);
  const std::vector<Event> events = build_event_stream(inst);
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  Dispatcher a(inst.dim(), *policy);
  feed(a, inst, events, 0, events.size() / 2);
  serial::Writer out;
  a.save_state(out);
  serial::Reader in(out.bytes());
  EXPECT_THROW(a.restore_state(in), std::logic_error);
}

TEST(Durable, ReopenContinuesWhereTheRunLeftOff) {
  const Instance inst = test_instance();
  const std::vector<Event> events = build_event_stream(inst);
  const std::size_t half = events.size() / 2;
  TempDir dir;

  persist::DurableOptions opts;
  opts.dir = dir.str();
  opts.fsync = FsyncPolicy::kNone;
  opts.checkpoint_every = 64;
  {
    PolicyPtr policy = make_policy("MoveToFront", kPolicySeed);
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    EXPECT_FALSE(durable.recovery().had_checkpoint);
    for (std::size_t i = 0; i < half; ++i) {
      const Event& ev = events[i];
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        durable.arrive(item.arrival, item.size, item.departure);
      } else {
        durable.depart(ev.time, item.id);
      }
    }
  }  // clean shutdown mid-stream

  PolicyPtr policy = make_policy("MoveToFront", kPolicySeed);
  persist::DurableDispatcher durable(inst.dim(), *policy, opts);
  EXPECT_TRUE(durable.recovery().had_checkpoint);
  EXPECT_EQ(durable.recovery().last_seq, half);

  PolicyPtr ref_policy = make_policy("MoveToFront", kPolicySeed);
  Dispatcher reference(inst.dim(), *ref_policy);
  PackingRecorder ref_recorder;
  reference.set_recorder(&ref_recorder);
  feed(reference, inst, events, 0, half);
  ASSERT_EQ(dispatcher_state_hash(reference),
            dispatcher_state_hash(durable.dispatcher()));
  ASSERT_EQ(packing_hash(ref_recorder.packing()),
            packing_hash(durable.packing()));

  // And the recovered run's future coincides with the uninterrupted one.
  for (std::size_t i = half; i < events.size(); ++i) {
    const Event& ev = events[i];
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      durable.arrive(item.arrival, item.size, item.departure);
    } else {
      durable.depart(ev.time, item.id);
    }
  }
  feed(reference, inst, events, half, events.size());
  EXPECT_EQ(dispatcher_state_hash(reference),
            dispatcher_state_hash(durable.dispatcher()));
  EXPECT_EQ(packing_hash(ref_recorder.packing()),
            packing_hash(durable.packing()));
}

TEST(Durable, PolicyMismatchRefusesToRecover) {
  const Instance inst = test_instance(40);
  const std::vector<Event> events = build_event_stream(inst);
  TempDir dir;
  persist::DurableOptions opts;
  opts.dir = dir.str();
  opts.fsync = FsyncPolicy::kNone;
  {
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    for (const Event& ev : events) {
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        durable.arrive(item.arrival, item.size, item.departure);
      } else {
        durable.depart(ev.time, item.id);
      }
    }
    durable.checkpoint();
  }
  PolicyPtr other = make_policy("BestFit", kPolicySeed);
  EXPECT_THROW(persist::DurableDispatcher(inst.dim(), *other, opts),
               persist::PersistError);
}

TEST(Durable, ColdStartReportsNothingRecovered) {
  TempDir dir;
  persist::DurableOptions opts;
  opts.dir = dir.str();
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  persist::DurableDispatcher durable(2, *policy, opts);
  EXPECT_FALSE(durable.recovery().had_checkpoint);
  EXPECT_EQ(durable.recovery().replayed_ops, 0u);
  EXPECT_EQ(durable.recovery().last_seq, 0u);
  EXPECT_EQ(durable.next_seq(), 1u);
}

}  // namespace
}  // namespace dvbp

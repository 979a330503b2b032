// Crash-recovery fuzz: for every registered policy, kill the durable
// dispatcher at every byte offset of the journal's tail frame (truncation
// AND single-byte corruption) and at every registered fault point, then
// recover and require the recovered state to be bit-identical to an
// uninterrupted run over the surviving prefix (dispatcher_state_hash from
// packing_hash.hpp hashes raw load bits, so "equal" means equal futures).
// A sharded K=4 service killed mid-drain at every fault point is
// recovered the same way, shard by shard. A journal whose tail carries
// tenant-credit (kTenantCredits) frames gets the same every-byte-offset
// treatment: the surviving prefix must reproduce the dispatcher, the
// usage ledgers, AND the last surviving credit snapshot bit for bit.
// Reopening a sharded journal with fewer shards than wrote it is refused;
// a reopen past checkpoints keeps every tenant ledger and, sharded, every
// job's record and owner -- a job that moved shards included.
#include <gtest/gtest.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/router.hpp"
#include "cloud/sharded_dispatcher.hpp"
#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/invariants.hpp"
#include "core/policies/registry.hpp"
#include "core/rebalancer.hpp"
#include "core/simulator.hpp"
#include "gen/tenants.hpp"
#include "gen/uniform.hpp"
#include "obs/metrics.hpp"
#include "packing_hash.hpp"
#include "persist/durable.hpp"
#include "persist/fault.hpp"
#include "persist/journal.hpp"
#include "tenancy/accountant.hpp"
#include "tenancy/arbiter.hpp"

namespace dvbp {
namespace {

namespace fs = std::filesystem;
using persist::FsyncPolicy;

constexpr std::uint64_t kPolicySeed = 0xD1CEu;

const char* const kPolicies[] = {
    "MoveToFront", "FirstFit",        "BestFit",     "NextFit",
    "LastFit",     "RandomFit",       "WorstFit",    "MinExtensionFit",
    "HarmonicFit", "DurationClassFit"};

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("dvbp_recovery_" + tag + "_" + std::to_string(++counter) +
            "_" + std::to_string(static_cast<unsigned>(::getpid())));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

Instance fuzz_instance() {
  gen::UniformParams params;
  params.d = 2;
  params.n = 120;
  params.mu = 12;
  params.span = 60;
  params.bin_size = 9;
  return gen::uniform_instance(params, 0xC4A54);
}

/// What a recovery must reproduce: the live state and the recorded
/// history.
struct Hashes {
  std::uint64_t state = 0;    ///< dispatcher_state_hash
  std::uint64_t packing = 0;  ///< packing_hash of the recorder
  bool operator==(const Hashes&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Hashes& h) {
  return os << "{state " << h.state << ", packing " << h.packing << "}";
}

Hashes hashes(const Dispatcher& d, const PackingRecorder& recorder) {
  return {dispatcher_state_hash(d), packing_hash(recorder.packing())};
}

Hashes hashes(const persist::DurableDispatcher& durable) {
  return hashes(durable.dispatcher(), durable.recorder());
}

/// A tenant-labeled instance long enough for several checkpoints per
/// engine: the repro of the ledger and history reopen tests below.
Instance ledger_instance() {
  gen::UniformParams params;
  params.d = 2;
  params.n = 400;
  params.mu = 12;
  params.span = 200;
  params.bin_size = 9;
  Instance inst = gen::uniform_instance(params, 0xC4A54);
  gen::label_tenants_uniform(inst, 3, /*seed=*/0xFEEDu);
  return inst;
}

/// Every figure a usage ledger reports, for bit-exact comparison.
std::vector<double> ledger(const tenancy::UsageAccountant& acc) {
  std::vector<double> out;
  for (std::uint32_t t = 0; t < acc.num_tenants(); ++t) {
    out.push_back(acc.active_demand(t));
    out.push_back(acc.demand_integral(t));
    out.push_back(acc.attributed_bin_seconds(t));
  }
  for (const double usage : acc.peek_epoch()) out.push_back(usage);
  out.push_back(acc.total_bin_seconds());
  out.push_back(acc.unattributed_bin_seconds());
  out.push_back(acc.last_event());
  return out;
}

/// What a sharded service reports of its history at quiescence besides
/// the merged packing: every job's owner shard and admission record (id,
/// arrival, departure, size, tenant), then every shard's tenant ledger.
std::vector<double> sharded_history(const cloud::ShardedDispatcher& service) {
  std::vector<double> out;
  for (JobId job = 0; job < service.jobs_admitted(); ++job) {
    const Item& item = service.job_item(job);
    out.push_back(static_cast<double>(service.shard_of(job)));
    out.push_back(static_cast<double>(item.id));
    out.push_back(item.arrival);
    out.push_back(item.departure);
    out.insert(out.end(), item.size.begin(), item.size.end());
    out.push_back(static_cast<double>(item.tenant));
  }
  for (std::size_t s = 0; s < service.shards(); ++s) {
    if (const tenancy::UsageAccountant* acc = service.shard_accountant(s)) {
      const std::vector<double> figures = ledger(*acc);
      out.insert(out.end(), figures.begin(), figures.end());
    }
  }
  return out;
}

/// Expected recovered state: a plain serial Dispatcher fed the first
/// `ops` events (one journaled op per event).
Hashes prefix_hash(const char* policy_name, const Instance& inst,
                   const std::vector<Event>& events, std::size_t ops) {
  PolicyPtr policy = make_policy(policy_name, kPolicySeed);
  Dispatcher reference(inst.dim(), *policy);
  PackingRecorder recorder;
  reference.set_recorder(&recorder);
  for (std::size_t i = 0; i < ops; ++i) {
    const Event& ev = events[i];
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      reference.arrive(item.arrival, item.size, item.departure);
    } else {
      reference.depart(ev.time, item.id);
    }
  }
  return hashes(reference, recorder);
}

/// Runs the full workload durably (no checkpoints, fsync off: one segment
/// with one frame per event) and returns the journal directory.
void run_full_durable(const char* policy_name, const Instance& inst,
                      const std::vector<Event>& events,
                      const std::string& dir) {
  PolicyPtr policy = make_policy(policy_name, kPolicySeed);
  persist::DurableOptions opts;
  opts.dir = dir;
  opts.fsync = FsyncPolicy::kNone;
  persist::DurableDispatcher durable(inst.dim(), *policy, opts);
  for (const Event& ev : events) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      durable.arrive(item.arrival, item.size, item.departure);
    } else {
      durable.depart(ev.time, item.id);
    }
  }
}

/// Recovers from `dir` and checks the recovered state (and recovery
/// report) against an uninterrupted prefix run of `expect_ops` events.
void expect_prefix_recovery(const char* policy_name, const Instance& inst,
                            const std::vector<Event>& events,
                            const std::string& dir, std::size_t expect_ops,
                            bool expect_torn, const std::string& what) {
  PolicyPtr policy = make_policy(policy_name, kPolicySeed);
  persist::DurableOptions opts;
  opts.dir = dir;
  opts.fsync = FsyncPolicy::kNone;
  persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
  EXPECT_EQ(recovered.recovery().last_seq, expect_ops) << what;
  EXPECT_EQ(recovered.recovery().torn_tail, expect_torn) << what;
  EXPECT_EQ(hashes(recovered),
            prefix_hash(policy_name, inst, events, expect_ops))
      << what << ": recovered state != uninterrupted prefix run";
}

// Byte-offset fuzz: chop (or flip a byte inside) the journal's last frame
// at EVERY offset. Truncation inside the frame and any single corrupted
// byte must both cost exactly that one frame -- never a crash, never a
// wrong packing.
TEST(CrashFuzz, EveryTailFrameByteOffsetTruncateAndCorrupt) {
  const Instance inst = fuzz_instance();
  const std::vector<Event> events = build_event_stream(inst);
  for (const char* policy_name : kPolicies) {
    SCOPED_TRACE(policy_name);
    TempDir base(std::string("base_") + policy_name);
    run_full_durable(policy_name, inst, events, base.str());

    const auto segments = persist::journal_segments(base.str());
    ASSERT_EQ(segments.size(), 1u);
    std::ifstream in(segments[0], std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    // Find where the last frame starts by walking the valid frames.
    const persist::JournalScan scan = persist::scan_journal(base.str());
    ASSERT_FALSE(scan.torn_tail);
    ASSERT_EQ(scan.records.size(), events.size());
    std::vector<std::uint8_t> tail_frame;
    persist::encode_frame(scan.records.back(), tail_frame);
    const std::size_t tail_start = bytes.size() - tail_frame.size();

    const std::string seg_name = fs::path(segments[0]).filename().string();
    for (std::size_t off = tail_start; off < bytes.size(); ++off) {
      // Truncate at `off`: a partial tail frame (or, at off == tail_start,
      // a clean frame boundary -- no tear at all).
      {
        TempDir trial("trunc");
        fs::create_directories(trial.str());
        std::ofstream out(trial.path / seg_name, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(off));
        out.close();
        expect_prefix_recovery(
            policy_name, inst, events, trial.str(), events.size() - 1,
            /*expect_torn=*/off != tail_start,
            "truncate@" + std::to_string(off));
      }
      // Flip one byte at `off`: CRC (or frame sanity) must reject the
      // frame, costing exactly the one frame.
      {
        TempDir trial("flip");
        fs::create_directories(trial.str());
        std::vector<char> mutated = bytes;
        mutated[off] = static_cast<char>(mutated[off] ^ 0x5A);
        std::ofstream out(trial.path / seg_name, std::ios::binary);
        out.write(mutated.data(),
                  static_cast<std::streamsize>(mutated.size()));
        out.close();
        expect_prefix_recovery(policy_name, inst, events, trial.str(),
                               events.size() - 1, /*expect_torn=*/true,
                               "flip@" + std::to_string(off));
      }
    }
  }
}

// Fault-point fuzz: kill the writer at every registered durability fault
// point (mid-commit, mid-checkpoint) while running with checkpoints on,
// recover, and require prefix parity. The op count folded into the
// recovered state is read from the recovery report and cross-checked
// against what the fault semantics allow.
TEST(CrashFuzz, EveryFaultPointRecoversToAPrefix) {
  const Instance inst = fuzz_instance();
  const std::vector<Event> events = build_event_stream(inst);
  // `nth`: which occurrence of the point to crash at. Commit points fire
  // once per op (~240 per run); checkpoint points once per checkpoint
  // (every 32 ops), so their countdowns are smaller.
  const struct {
    const char* point;
    bool op_survives;  ///< frame durable despite the fault?
    int nth;
  } kFaults[] = {
      {"journal.commit.begin", false, 70},
      {"journal.commit.torn", false, 70},
      {"journal.commit.written", true, 70},
      {"journal.commit.synced", true, 70},
      {"checkpoint.tmp_written", true, 3},
      {"checkpoint.renamed", true, 3},
      {"checkpoint.truncated", true, 3},
  };
  for (const char* policy_name : {"MoveToFront", "RandomFit", "NextFit"}) {
    SCOPED_TRACE(policy_name);
    for (const auto& fault : kFaults) {
      SCOPED_TRACE(fault.point);
      TempDir dir(std::string("fault"));
      // Arm the hook to fire on the Nth occurrence of the point, landing
      // mid-run (after the first checkpoint for the checkpoint points).
      int countdown = fault.nth;
      persist::set_fault_hook([&](std::string_view point) {
        if (point == fault.point && --countdown == 0) {
          throw persist::FaultInjected(point);
        }
      });
      std::size_t ops_issued = 0;
      bool crashed = false;
      {
        PolicyPtr policy = make_policy(policy_name, kPolicySeed);
        persist::DurableOptions opts;
        opts.dir = dir.str();
        opts.fsync = FsyncPolicy::kNone;
        opts.checkpoint_every = 32;
        persist::DurableDispatcher durable(inst.dim(), *policy, opts);
        try {
          for (const Event& ev : events) {
            const Item& item = inst[ev.item];
            if (ev.kind == EventKind::kArrival) {
              durable.arrive(item.arrival, item.size, item.departure);
            } else {
              durable.depart(ev.time, item.id);
            }
            ++ops_issued;
          }
        } catch (const persist::FaultInjected&) {
          crashed = true;  // abandon the object, like a process death
        }
      }
      persist::clear_fault_hook();
      ASSERT_TRUE(crashed) << "fault never fired";

      // The op being journaled when the fault hit survives only past the
      // write; checkpoint-path faults fire after their op committed.
      const std::size_t expect_ops =
          fault.op_survives ? ops_issued + 1 : ops_issued;
      PolicyPtr policy = make_policy(policy_name, kPolicySeed);
      persist::DurableOptions opts;
      opts.dir = dir.str();
      opts.fsync = FsyncPolicy::kNone;
      persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
      EXPECT_EQ(recovered.recovery().last_seq, expect_ops) << fault.point;
      EXPECT_EQ(hashes(recovered),
                prefix_hash(policy_name, inst, events, expect_ops))
          << fault.point << ": recovered state != prefix run";
    }
  }
}

// Migration-era tail fuzz: stop a durable run right after its FIRST
// migration, so the journal's tail is the dangerous sequence
// [kDepart, kEvict, kReplace, ...]. Truncating or corrupting at EVERY
// byte offset inside that tail must recover to exactly the surviving
// frame prefix -- including prefixes that end between an eviction and
// its replace, where the recovered engine legitimately holds a job in
// limbo. The reference is a plain Dispatcher replaying the surviving
// JournalRecords directly, and the recovered state must additionally
// satisfy the packing invariant checker.
TEST(CrashFuzz, MigrationTailEveryByteOffsetTruncateAndCorrupt) {
  const Instance inst = fuzz_instance();
  const std::vector<Event> events = build_event_stream(inst);
  TempDir base("migration_base");
  Hashes live_hash;
  std::size_t ops_issued = 0;
  {
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = base.str();
    opts.fsync = FsyncPolicy::kNone;
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    MigrationConfig config;
    config.migrations_per_event = MigrationConfig::kUnlimited;
    Rebalancer rebalancer(durable.dispatcher(), config,
                          durable.migration_exec());
    for (const Event& ev : events) {
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        durable.arrive(item.arrival, item.size, item.departure);
        ++ops_issued;
      } else {
        durable.depart(ev.time, item.id);
        ++ops_issued;
        const std::size_t moved = rebalancer.on_departure(ev.time);
        ops_issued += 2 * moved;  // one kEvict + one kReplace per item
        if (moved > 0) break;
      }
    }
    ASSERT_GT(rebalancer.stats().migrations, 0u)
        << "workload never triggered a migration";
    live_hash = hashes(durable);
  }

  const auto segments = persist::journal_segments(base.str());
  ASSERT_EQ(segments.size(), 1u);
  std::ifstream in(segments[0], std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const persist::JournalScan scan = persist::scan_journal(base.str());
  ASSERT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), ops_issued);

  // Byte offset where each frame starts; frame_start.back() == EOF.
  std::vector<std::size_t> frame_start;
  {
    std::vector<std::uint8_t> buf;
    for (const persist::JournalRecord& rec : scan.records) {
      frame_start.push_back(buf.size());
      persist::encode_frame(rec, buf);
    }
    frame_start.push_back(buf.size());
    ASSERT_EQ(buf.size(), bytes.size());
  }

  // The fuzz region: from the depart frame that triggered the migration.
  std::size_t depart_idx = scan.records.size();
  std::size_t evicts = 0;
  std::size_t replaces = 0;
  while (depart_idx > 0 &&
         scan.records[depart_idx - 1].kind != persist::OpKind::kDepart) {
    --depart_idx;
    if (scan.records[depart_idx].kind == persist::OpKind::kEvict) ++evicts;
    if (scan.records[depart_idx].kind == persist::OpKind::kReplace) {
      ++replaces;
    }
  }
  ASSERT_GT(depart_idx, 0u);
  --depart_idx;
  ASSERT_GT(evicts, 0u) << "tail holds no kEvict frame";
  ASSERT_EQ(evicts, replaces) << "unpaired evict/replace in the tail";
  const std::size_t tail_begin = frame_start[depart_idx];

  // Reference: a plain Dispatcher replaying the first `k` records.
  const auto record_prefix_hash = [&](std::size_t k) {
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    Dispatcher reference(inst.dim(), *policy);
    PackingRecorder recorder;
    reference.set_recorder(&recorder);
    for (std::size_t i = 0; i < k; ++i) {
      const persist::JournalRecord& rec = scan.records[i];
      switch (rec.kind) {
        case persist::OpKind::kArrive:
          reference.arrive(rec.time, rec.size, rec.expected_departure);
          break;
        case persist::OpKind::kDepart:
          reference.depart(rec.time, rec.job);
          break;
        case persist::OpKind::kAdvance:
          break;  // never issued by this run
        case persist::OpKind::kEvict:
          reference.evict(rec.time, rec.job);
          break;
        case persist::OpKind::kReplace:
          reference.replace(rec.time, rec.job,
                            rec.new_bin ? kNoBin : rec.bin);
          break;
        case persist::OpKind::kTenantCredits:
          ADD_FAILURE() << "record " << i
                        << ": this run journals no tenant-credit frame";
          break;
      }
    }
    return hashes(reference, recorder);
  };

  const std::string seg_name = fs::path(segments[0]).filename().string();
  const auto check_recovery = [&](const fs::path& dir, std::size_t k,
                                  bool torn, const std::string& what) {
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = dir.string();
    opts.fsync = FsyncPolicy::kNone;
    persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
    EXPECT_EQ(recovered.recovery().last_seq, k) << what;
    EXPECT_EQ(recovered.recovery().torn_tail, torn) << what;
    EXPECT_EQ(hashes(recovered), record_prefix_hash(k))
        << what << ": recovered state != journal-record prefix replay";
    PackingInvariantChecker checker;
    const auto err =
        checker.check(recovered.dispatcher(), &recovered.recorder());
    EXPECT_FALSE(err.has_value()) << what << ": " << *err;
  };

  // Untampered recovery first: bit-exact with the live run.
  {
    TempDir trial("mig_full");
    fs::create_directories(trial.str());
    std::ofstream out(trial.path / seg_name, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = trial.str();
    opts.fsync = FsyncPolicy::kNone;
    persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
    ASSERT_EQ(recovered.recovery().last_seq, ops_issued);
    ASSERT_EQ(hashes(recovered), live_hash)
        << "clean recovery diverged from the uninterrupted run";
  }

  for (std::size_t off = tail_begin; off < bytes.size(); ++off) {
    // Which frame contains `off`, and how many complete frames precede it.
    std::size_t containing = 0;
    while (frame_start[containing + 1] <= off) ++containing;
    {
      TempDir trial("mig_trunc");
      fs::create_directories(trial.str());
      std::ofstream out(trial.path / seg_name, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(off));
      out.close();
      check_recovery(trial.path, containing,
                     /*torn=*/off != frame_start[containing],
                     "truncate@" + std::to_string(off));
    }
    {
      TempDir trial("mig_flip");
      fs::create_directories(trial.str());
      std::vector<char> mutated = bytes;
      mutated[off] = static_cast<char>(mutated[off] ^ 0x5A);
      std::ofstream out(trial.path / seg_name, std::ios::binary);
      out.write(mutated.data(),
                static_cast<std::streamsize>(mutated.size()));
      out.close();
      check_recovery(trial.path, containing, /*torn=*/true,
                     "flip@" + std::to_string(off));
    }
  }
}

// Tenant-credit tail fuzz: a durable, tenant-labeled run settles credits
// every 40 ops through settle_credits(), so the journal interleaves
// kTenantCredits frames with labeled kArrive frames and ENDS on one.
// Truncate and flip-corrupt EVERY byte offset of the tail region spanning
// the final settlement cycle (labeled ops + the last credit frame):
// recovery must rebuild the dispatcher AND the per-tenant usage ledgers
// from the surviving op prefix, and recovery().tenant_credits must be
// byte-identical to the newest credit blob that survived that prefix --
// restorable into a fresh Arbiter that serializes right back to it.
TEST(CrashFuzz, TenantCreditTailEveryByteOffsetTruncateAndCorrupt) {
  constexpr std::uint32_t kTenants = 4;
  constexpr std::size_t kSettleEvery = 40;
  Instance inst = fuzz_instance();
  gen::label_tenants_uniform(inst, kTenants, /*seed=*/0xFEEDu);
  const std::vector<Event> events = build_event_stream(inst);

  tenancy::ArbiterConfig aconfig;
  aconfig.num_tenants = kTenants;
  aconfig.init_credits = 2.0;
  aconfig.alpha = 0.25;
  // capacity_units stays infinite: the gate is fuzzed elsewhere; what is
  // under test here is the durability of the settled credit state.

  TempDir base("credits_base");
  std::vector<std::vector<std::uint8_t>> blobs;  // journaled, in order
  Hashes live_hash;
  {
    PolicyPtr policy = make_policy("BestFit", kPolicySeed);
    tenancy::UsageAccountant accountant(kTenants);
    tenancy::Arbiter arbiter(aconfig);
    persist::DurableOptions opts;
    opts.dir = base.str();
    opts.fsync = FsyncPolicy::kNone;
    opts.usage_hook = &accountant;
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    std::size_t ops = 0;
    for (const Event& ev : events) {
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        durable.arrive(item.arrival, item.size, item.departure,
                       item.tenant);
      } else {
        durable.depart(ev.time, item.id);
      }
      if (++ops % kSettleEvery == 0 && ops < events.size()) {
        arbiter.settle(ev.time, accountant.cut_epoch());
        durable.settle_credits(ev.time, arbiter.state_bytes());
        blobs.push_back(arbiter.state_bytes());
      }
    }
    // End the journal ON a settlement, so the tail frame is kTenantCredits.
    arbiter.settle(events.back().time, accountant.cut_epoch());
    durable.settle_credits(events.back().time, arbiter.state_bytes());
    blobs.push_back(arbiter.state_bytes());
    live_hash = hashes(durable);
  }
  ASSERT_GE(blobs.size(), 3u);

  const auto segments = persist::journal_segments(base.str());
  ASSERT_EQ(segments.size(), 1u);
  std::ifstream in(segments[0], std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const persist::JournalScan scan = persist::scan_journal(base.str());
  ASSERT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), events.size() + blobs.size());

  // Byte offset where each frame starts; frame_start.back() == EOF.
  std::vector<std::size_t> frame_start;
  {
    std::vector<std::uint8_t> buf;
    for (const persist::JournalRecord& rec : scan.records) {
      frame_start.push_back(buf.size());
      persist::encode_frame(rec, buf);
    }
    frame_start.push_back(buf.size());
    ASSERT_EQ(buf.size(), bytes.size());
  }

  // Locate the credit frames; the journaled blobs must round out on disk
  // exactly as settled, and the journal must end on one.
  std::vector<std::size_t> credit_idx;
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    if (scan.records[i].kind == persist::OpKind::kTenantCredits) {
      credit_idx.push_back(i);
    }
  }
  ASSERT_EQ(credit_idx.size(), blobs.size());
  for (std::size_t k = 0; k < blobs.size(); ++k) {
    ASSERT_EQ(scan.records[credit_idx[k]].blob, blobs[k]) << "frame " << k;
  }
  ASSERT_EQ(credit_idx.back(), scan.records.size() - 1);

  // Recovery check against a reference replay of the first `k` records:
  // dispatcher hash, recovered usage ledgers (a fresh accountant installed
  // before replay re-accrues them), and the newest surviving credit blob.
  const auto check = [&](const fs::path& dir, std::size_t k, bool torn,
                         const std::string& what) {
    PolicyPtr policy = make_policy("BestFit", kPolicySeed);
    tenancy::UsageAccountant recovered_acc(kTenants);
    persist::DurableOptions opts;
    opts.dir = dir.string();
    opts.fsync = FsyncPolicy::kNone;
    opts.usage_hook = &recovered_acc;
    persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
    EXPECT_EQ(recovered.recovery().last_seq, k) << what;
    EXPECT_EQ(recovered.recovery().torn_tail, torn) << what;

    PolicyPtr ref_policy = make_policy("BestFit", kPolicySeed);
    Dispatcher reference(inst.dim(), *ref_policy);
    PackingRecorder ref_recorder;
    reference.set_recorder(&ref_recorder);
    tenancy::UsageAccountant ref_acc(kTenants);
    reference.set_usage_hook(&ref_acc);
    std::vector<std::uint8_t> expect_blob;
    for (std::size_t i = 0; i < k; ++i) {
      const persist::JournalRecord& rec = scan.records[i];
      switch (rec.kind) {
        case persist::OpKind::kArrive:
          reference.arrive(rec.time, rec.size, rec.expected_departure,
                           rec.tenant);
          break;
        case persist::OpKind::kDepart:
          reference.depart(rec.time, rec.job);
          break;
        case persist::OpKind::kTenantCredits:
          expect_blob = rec.blob;
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(hashes(recovered), hashes(reference, ref_recorder))
        << what << ": recovered state != journal-record prefix replay";
    EXPECT_EQ(recovered.recovery().tenant_credits, expect_blob)
        << what << ": wrong surviving credit blob";
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      // Same hook code replaying the same op sequence: bit-exact.
      EXPECT_EQ(recovered_acc.demand_integral(t), ref_acc.demand_integral(t))
          << what << " tenant " << t;
      EXPECT_EQ(recovered_acc.active_demand(t), ref_acc.active_demand(t))
          << what << " tenant " << t;
    }
    if (!expect_blob.empty()) {
      tenancy::Arbiter restored(aconfig);
      serial::Reader blob_in(expect_blob);
      restored.restore_state(blob_in);
      EXPECT_EQ(restored.state_bytes(), expect_blob)
          << what << ": credit blob does not round-trip through Arbiter";
    }
  };

  const std::string seg_name = fs::path(segments[0]).filename().string();
  const auto write_prefix = [&](const fs::path& dir,
                                const std::vector<char>& data,
                                std::size_t len) {
    fs::create_directories(dir);
    std::ofstream out(dir / seg_name, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(len));
  };

  // Untampered recovery first: bit-exact with the live run, newest blob.
  {
    TempDir trial("cred_full");
    write_prefix(trial.path, bytes, bytes.size());
    PolicyPtr policy = make_policy("BestFit", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = trial.str();
    opts.fsync = FsyncPolicy::kNone;
    persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
    ASSERT_EQ(recovered.recovery().last_seq, scan.records.size());
    ASSERT_EQ(hashes(recovered), live_hash);
    ASSERT_EQ(recovered.recovery().tenant_credits, blobs.back());
  }
  // Chopping off every credit frame leaves tenant_credits empty.
  {
    TempDir trial("cred_none");
    write_prefix(trial.path, bytes, frame_start[credit_idx.front()]);
    check(trial.path, credit_idx.front(), /*torn=*/false, "pre-credit cut");
  }

  // The fuzz region: a few labeled op frames before the last credit frame,
  // plus every byte of the credit frame itself. Prefixes inside the region
  // surface the SECOND-newest blob; only full survival surfaces the last.
  const std::size_t tail_begin = frame_start[credit_idx.back() - 4];
  for (std::size_t off = tail_begin; off < bytes.size(); ++off) {
    std::size_t containing = 0;
    while (frame_start[containing + 1] <= off) ++containing;
    {
      TempDir trial("cred_trunc");
      write_prefix(trial.path, bytes, off);
      check(trial.path, containing,
            /*torn=*/off != frame_start[containing],
            "truncate@" + std::to_string(off));
    }
    {
      TempDir trial("cred_flip");
      std::vector<char> mutated = bytes;
      mutated[off] = static_cast<char>(mutated[off] ^ 0x5A);
      write_prefix(trial.path, mutated, mutated.size());
      check(trial.path, containing, /*torn=*/true,
            "flip@" + std::to_string(off));
    }
  }
}

// A failure is sticky: once a checkpoint dies between its rename and the
// journal rotation, the engine journals nothing more. The next op still
// applies in memory but throws, and recovery sees only the ops before it.
TEST(CrashFuzz, AFailedCheckpointLeavesTheJournalShut) {
  const Instance inst = fuzz_instance();
  const std::vector<Event> events = build_event_stream(inst);
  TempDir dir("sticky");
  persist::DurableOptions opts;
  opts.dir = dir.str();
  opts.fsync = FsyncPolicy::kNone;
  opts.checkpoint_every = 8;
  {
    PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    std::size_t next = 0;
    const auto apply_next = [&] {
      const Event& ev = events[next++];
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        durable.arrive(item.arrival, item);
      } else {
        durable.depart(ev.time, item.id);
      }
    };
    for (int op = 0; op < 7; ++op) apply_next();
    persist::set_fault_hook([](std::string_view point) {
      if (point == "checkpoint.renamed") throw persist::FaultInjected(point);
    });
    EXPECT_THROW(apply_next(), persist::FaultInjected);  // the 8th op's
    persist::clear_fault_hook();
    EXPECT_THROW(apply_next(), persist::PersistError);
    EXPECT_THROW(durable.flush(), persist::PersistError);
  }
  PolicyPtr policy = make_policy("FirstFit", kPolicySeed);
  persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
  EXPECT_TRUE(recovered.recovery().had_checkpoint);
  EXPECT_EQ(recovered.recovery().last_seq, 8u);
}

// Interval mode runs a background flusher thread alongside the committing
// thread; drive it hard (fsync every 4 ops, so the flusher is almost
// always in flight), abandon the writer mid-class like a crash, and make
// sure recovery still sees every committed frame. This is the TSan
// coverage for the commit()/flusher/sync() interplay.
TEST(CrashFuzz, BackgroundFlusherKeepsEveryCommittedFrame) {
  const Instance inst = fuzz_instance();
  const std::vector<Event> events = build_event_stream(inst);
  TempDir dir("flusher");
  {
    PolicyPtr policy = make_policy("MoveToFront", kPolicySeed);
    persist::DurableOptions opts;
    opts.dir = dir.str();
    opts.fsync = FsyncPolicy::kInterval;
    opts.fsync_interval_ops = 4;
    opts.checkpoint_every = 64;  // checkpoint path exercises sync() drains
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    for (const Event& ev : events) {
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        durable.arrive(item.arrival, item.size, item.departure);
      } else {
        durable.depart(ev.time, item.id);
      }
    }
    // Abandoned without flush(): the destructor only joins the flusher.
  }
  expect_prefix_recovery("MoveToFront", inst, events, dir.str(),
                         events.size(), /*expect_torn=*/false,
                         "interval-flusher run");
}

// Sharded crash: a K=4 rendezvous-routed service is killed mid-drain at
// each registered fault point, on whichever shard reaches it first.
// Recovery rebuilds each shard independently; every shard must match a
// serial Dispatcher fed exactly the prefix of its substream that survived
// in its journal, and after the fault the dying shard journals nothing.
TEST(CrashFuzz, ShardedKilledMidDrainRecoversShardByShard) {
  constexpr std::size_t kShards = 4;
  gen::UniformParams params;
  params.d = 2;
  params.n = 600;
  params.mu = 12;
  params.span = 120;
  params.bin_size = 9;
  const Instance inst = gen::uniform_instance(params, 0x5A4D);
  const std::vector<Event> events = build_event_stream(inst);

  // The rendezvous router is a pure function of (job id, shard), and the
  // single-producer feed assigns job ids in arrival order, so the test
  // can reconstruct every shard's substream exactly.
  std::vector<JobId> job_of_item(inst.size(), kNoItem);
  {
    JobId next = 0;
    for (const Event& ev : events) {
      if (ev.kind == EventKind::kArrival) job_of_item[ev.item] = next++;
    }
  }
  auto shard_of = [&](JobId job) {
    std::size_t best = 0;
    std::uint64_t best_score = cloud::rendezvous_score(job, 0);
    for (std::size_t s = 1; s < kShards; ++s) {
      const std::uint64_t score = cloud::rendezvous_score(job, s);
      if (score > best_score) {
        best = s;
        best_score = score;
      }
    }
    return best;
  };

  cloud::ShardedOptions options;
  options.shards = kShards;
  options.router = cloud::RouterKind::kRendezvous;
  options.fsync = FsyncPolicy::kNone;
  options.checkpoint_every = 64;
  const auto factory = [](std::size_t) {
    return make_policy("MoveToFront", kPolicySeed);
  };

  // `nth`: which occurrence of the point, across all shards, dies. Batch
  // commits are few -- workers drain their whole backlog per wakeup --
  // and checkpoints (every 64 journaled ops of a shard) fewer still, so
  // the countdowns are small. The torn-tail bytes themselves are fuzzed
  // per byte by the serial tests; here the batch boundary is the
  // interesting sharded behavior.
  const struct {
    const char* point;
    int nth;
  } kFaults[] = {
      {"journal.commit.begin", 5},   {"journal.commit.torn", 5},
      {"journal.commit.written", 5}, {"journal.commit.synced", 5},
      {"checkpoint.tmp_written", 2}, {"checkpoint.renamed", 2},
      {"checkpoint.truncated", 2},
  };
  for (const auto& fault : kFaults) {
    SCOPED_TRACE(fault.point);
    TempDir dir("sharded");
    options.journal_dir = dir.str();
    {
      std::mutex fault_mu;
      int countdown = fault.nth;
      persist::set_fault_hook([&](std::string_view point) {
        if (point != fault.point) return;
        std::lock_guard<std::mutex> lock(fault_mu);
        if (--countdown == 0) throw persist::FaultInjected(point);
      });
      cloud::ShardedDispatcher service(inst.dim(), factory, options);
      for (const Event& ev : events) {
        const Item& item = inst[ev.item];
        if (ev.kind == EventKind::kArrival) {
          const JobId job =
              service.arrive(item.arrival, item.size, item.departure);
          ASSERT_EQ(job, job_of_item[ev.item]);
        } else {
          service.depart(ev.time, job_of_item[ev.item]);
        }
      }
      EXPECT_THROW(service.drain(), persist::FaultInjected);
      persist::clear_fault_hook();
    }  // destructor joins workers; the dead shard journals nothing more

    // Recover a fresh service from the same directories.
    cloud::ShardedDispatcher recovered(inst.dim(), factory, options);
    std::uint64_t total_recovered_ops = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      SCOPED_TRACE(s);
      const persist::RecoveryReport& report = recovered.shard_recovery(s);
      total_recovered_ops += report.last_seq;

      // Rebuild shard s's substream (the order its queue received ops)
      // and feed the surviving prefix to a serial replica, under the
      // global job ids the shard admits its jobs under.
      PolicyPtr policy = make_policy("MoveToFront", kPolicySeed);
      Dispatcher replica(inst.dim(), *policy);
      PackingRecorder recorder;
      replica.set_recorder(&recorder);
      std::uint64_t applied = 0;
      for (const Event& ev : events) {
        if (applied >= report.last_seq) break;
        const JobId job = job_of_item[ev.item];
        if (shard_of(job) != s) continue;
        const Item& item = inst[ev.item];
        if (ev.kind == EventKind::kArrival) {
          replica.arrive(item.arrival,
                         Item(job, item.arrival, item.departure, item.size));
        } else {
          replica.depart(ev.time, job);
        }
        ++applied;
      }
      ASSERT_EQ(applied, report.last_seq);
      EXPECT_EQ(recovered.shard_jobs_admitted(s), replica.jobs_admitted());
      EXPECT_EQ(dispatcher_state_hash(recovered.shard_dispatcher(s)),
                dispatcher_state_hash(replica))
          << "shard " << s
          << " live state diverged from its journaled prefix";
      EXPECT_EQ(packing_hash(recovered.shard_packing(s)),
                packing_hash(recorder.packing()))
          << "shard " << s << " diverged from its journaled prefix";
    }
    // The dying shard lost at most its uncommitted tail and everything
    // after the fault; the others recovered every op they were fed.
    EXPECT_GT(total_recovered_ops, 0u);
    EXPECT_LT(total_recovered_ops, events.size() + 1);

    // The recovered service is live: it accepts new traffic and drains.
    const Time resume = events.back().time + 1.0;
    RVec size(inst.dim());
    for (std::size_t j = 0; j < size.dim(); ++j) size[j] = 0.3;
    const JobId job = recovered.arrive(resume, size, resume + 5.0);
    recovered.depart(resume + 2.0, job);
    recovered.drain();
  }
}

// A shard commits once per drained batch and checks its checkpoint cadence
// once: the worker, held inside the first op's completion, finds the other
// 99 ops queued and drains them as one batch -- one write(2), and one
// checkpoint although the batch crosses the cadence many times over.
TEST(ShardedJournal, AShardCommitsOncePerDrainedBatch) {
  struct Hold final : cloud::CompletionSink {
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
    void op_applied(std::uint64_t, JobId) noexcept override {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    }
  };
  TempDir dir("group_commit");
  obs::MetricRegistry registry;
  cloud::ShardedOptions options;
  options.journal_dir = dir.str();
  options.fsync = FsyncPolicy::kNone;
  options.checkpoint_every = 10;
  options.metrics = &registry;
  cloud::ShardedDispatcher service(
      1, [](std::size_t) { return make_policy("FirstFit", kPolicySeed); },
      options);
  const auto hold = std::make_shared<Hold>();
  ASSERT_TRUE(service.try_arrive(0.0, RVec{0.01},
                                 std::numeric_limits<Time>::infinity(), hold));
  {
    std::unique_lock<std::mutex> lock(hold->mu);
    hold->cv.wait(lock, [&] { return hold->entered; });
  }
  for (int j = 1; j < 100; ++j) {
    service.arrive(static_cast<Time>(j), RVec{0.01});
  }
  {
    std::lock_guard<std::mutex> lock(hold->mu);
    hold->released = true;
  }
  hold->cv.notify_all();
  service.drain();
  EXPECT_EQ(registry.counter("dvbp.persist.journal_commits_total").value(),
            2u);
  EXPECT_EQ(registry.counter("dvbp.persist.checkpoints_total").value(), 1u);
  EXPECT_EQ(service.shard_jobs_admitted(0), 100u);
}

// Reopening a sharded journal with fewer shards must not silently drop the
// missing shards' jobs (their ids would read as departed). An orphan shard
// directory that journaled nothing -- what a reopen at a larger K leaves
// behind -- stays harmless.
TEST(ShardedReopen, FewerShardsThanTheJournalIsRefused) {
  TempDir dir("reshard");
  cloud::ShardedOptions options;
  options.journal_dir = dir.str();
  options.fsync = FsyncPolicy::kNone;
  const auto factory = [](std::size_t) {
    return make_policy("MoveToFront", kPolicySeed);
  };
  const auto open = [&](std::size_t shards) {
    options.shards = shards;
    return std::make_unique<cloud::ShardedDispatcher>(2, factory, options);
  };

  open(1).reset();  // shard-0 only, nothing journaled
  open(2).reset();  // creates an empty shard-1
  EXPECT_NO_THROW(open(1).reset());

  {
    auto service = open(2);
    for (int j = 0; j < 4; ++j) {
      service->arrive(static_cast<Time>(j), RVec{0.3, 0.3}, 100.0);
    }
    service->drain();
    ASSERT_EQ(service->shard_jobs_admitted(1), 2u);
  }
  EXPECT_THROW(open(1), persist::PersistError);
  const auto reopened = open(2);
  EXPECT_EQ(reopened->jobs_active(), 4u);
}

// rebalance_shards moves the largest job that fits half the gap, ties going
// to the job the shard admitted first -- not the lowest id. Shard 1 holds
// job 1 (admitted there first) and job 0 (moved in later), both of size
// 0.2; after a recovery from the shard checkpoints, job 1 still moves.
TEST(ShardedReopen, RebalanceTiesGoByAdmissionOrderAcrossACheckpoint) {
  TempDir dir("rebalance_ties");
  cloud::ShardedOptions options;
  options.shards = 2;
  options.router = cloud::RouterKind::kRoundRobin;
  options.journal_dir = dir.str();
  options.fsync = FsyncPolicy::kNone;
  options.checkpoint_every = 1;
  const auto factory = [](std::size_t) {
    return make_policy("FirstFit", kPolicySeed);
  };
  cloud::ShardRebalanceConfig one_move;
  one_move.skew_ratio = 1.0;
  one_move.min_gap = 0.0;
  one_move.max_moves = 1;
  {
    cloud::ShardedDispatcher service(1, factory, options);
    service.arrive(0.0, RVec{0.2});  // job 0 -> shard 0
    service.arrive(1.0, RVec{0.2});  // job 1 -> shard 1
    service.arrive(2.0, RVec{0.7});  // job 2 -> shard 0
    service.drain();
    ASSERT_EQ(service.rebalance_shards(3.0, one_move).moves, 1u);
    ASSERT_EQ(service.shard_of(0), 1u);
    service.arrive(4.0, RVec{0.9});   // job 3 -> shard 1
    service.arrive(5.0, RVec{0.05});  // job 4 -> shard 0
    service.drain();
  }
  cloud::ShardedDispatcher recovered(1, factory, options);
  EXPECT_TRUE(recovered.shard_recovery(1).had_checkpoint);
  EXPECT_EQ(recovered.job_item(0).arrival, 3.0);  // admitted by the move
  ASSERT_EQ(recovered.rebalance_shards(6.0, one_move).moves, 1u);
  EXPECT_EQ(recovered.shard_of(1), 0u);
  EXPECT_EQ(recovered.shard_of(0), 1u);
}

// A serial reopen past a checkpoint rebuilds the whole tenant ledger, not
// just the replayed tail: the checkpoint carries the ledger, and replay
// re-accrues the ops after it on top, so every figure is bit-exact.
TEST(DurableTenancy, ReopenPastACheckpointRebuildsTheWholeLedger) {
  const Instance inst = ledger_instance();
  const std::vector<Event> events = build_event_stream(inst);
  TempDir dir("ledger");
  persist::DurableOptions opts;
  opts.dir = dir.str();
  opts.fsync = FsyncPolicy::kNone;
  opts.checkpoint_every = 50;
  std::vector<double> live;
  {
    PolicyPtr policy = make_policy("BestFit", kPolicySeed);
    tenancy::UsageAccountant accountant(3);
    opts.usage_hook = &accountant;
    persist::DurableDispatcher durable(inst.dim(), *policy, opts);
    for (std::size_t i = 0; i < events.size() * 2 / 3; ++i) {
      const Item& item = inst[events[i].item];
      if (events[i].kind == EventKind::kArrival) {
        durable.arrive(item.arrival, item);
      } else {
        durable.depart(events[i].time, item.id);
      }
    }
    live = ledger(accountant);
  }
  PolicyPtr policy = make_policy("BestFit", kPolicySeed);
  tenancy::UsageAccountant accountant(3);
  opts.usage_hook = &accountant;
  persist::DurableDispatcher recovered(inst.dim(), *policy, opts);
  ASSERT_TRUE(recovered.recovery().had_checkpoint);
  ASSERT_GT(recovered.recovery().replayed_ops, 0u);
  EXPECT_EQ(ledger(accountant), live);
}

// The sharded history contract across a reopen: the merged packing, every
// job's owner shard and admission record -- departed jobs included -- and
// every shard's tenant ledger read the same after a recovery as before
// it, whether they come back from checkpoints, journal tails or both.
TEST(ShardedReopen, HistoryAndLedgersSurviveAReopen) {
  const Instance inst = ledger_instance();
  const std::vector<Event> events = build_event_stream(inst);
  const auto factory = [](std::size_t) {
    return make_policy("MoveToFront", kPolicySeed);
  };
  for (const std::size_t every : {0, 7, 50}) {
    SCOPED_TRACE(every);
    TempDir dir("history");
    cloud::ShardedOptions options;
    options.shards = 2;
    options.tenants = 3;
    options.journal_dir = dir.str();
    options.fsync = FsyncPolicy::kNone;
    options.checkpoint_every = every;
    std::uint64_t packing = 0;
    std::vector<double> history;
    {
      cloud::ShardedDispatcher service(inst.dim(), factory, options);
      std::vector<JobId> job_of_item(inst.size(), kNoItem);
      for (std::size_t i = 0; i < events.size() * 2 / 3; ++i) {
        const Item& item = inst[events[i].item];
        if (events[i].kind == EventKind::kArrival) {
          job_of_item[item.id] = service.arrive(item.arrival, item.size,
                                                item.departure, item.tenant);
        } else {
          service.depart(events[i].time, job_of_item[item.id]);
        }
      }
      service.drain();
      packing = packing_hash(service.snapshot());
      history = sharded_history(service);
    }
    cloud::ShardedDispatcher recovered(inst.dim(), factory, options);
    EXPECT_EQ(recovered.shard_recovery(0).had_checkpoint, every > 0);
    EXPECT_EQ(packing_hash(recovered.snapshot()), packing);
    EXPECT_EQ(sharded_history(recovered), history);
  }
}

// A job that moved shards and then departed recovers on the shard it
// departed from, whichever way it moved and whether or not checkpoints
// ran: after a journaled rebalance pass no other shard's history names it.
TEST(ShardedReopen, AMovedThenDepartedJobRecoversOnItsLastShard) {
  const auto factory = [](std::size_t) {
    return make_policy("FirstFit", kPolicySeed);
  };
  cloud::ShardRebalanceConfig one_move;
  one_move.skew_ratio = 1.0;
  one_move.min_gap = 0.0;
  one_move.max_moves = 1;
  for (const std::size_t every : {0, 1}) {
    for (const std::size_t from : {0, 1}) {
      SCOPED_TRACE("every " + std::to_string(every) + ", from shard " +
                   std::to_string(from));
      TempDir dir("moved");
      cloud::ShardedOptions options;
      options.shards = 2;
      options.router = cloud::RouterKind::kRoundRobin;
      options.journal_dir = dir.str();
      options.fsync = FsyncPolicy::kNone;
      options.checkpoint_every = every;
      // Round-robin sends job j to shard j % 2. From shard 1, a small
      // first job shifts the three that skew the load by one shard.
      const JobId moved = from;
      std::uint64_t packing = 0;
      std::vector<double> history;
      {
        cloud::ShardedDispatcher service(1, factory, options);
        if (from == 1) service.arrive(0.0, RVec{0.05});
        service.arrive(0.0, RVec{0.2});  // the job that moves
        service.arrive(1.0, RVec{0.1});
        service.arrive(2.0, RVec{0.7});
        service.drain();
        ASSERT_EQ(service.rebalance_shards(3.0, one_move).moves, 1u);
        ASSERT_EQ(service.shard_of(moved), 1 - from);
        service.depart(4.0, moved);
        service.drain();
        packing = packing_hash(service.snapshot());
        history = sharded_history(service);
      }
      cloud::ShardedDispatcher recovered(1, factory, options);
      EXPECT_EQ(recovered.shard_of(moved), 1 - from);
      EXPECT_EQ(recovered.job_item(moved).departure, 4.0);
      EXPECT_EQ(packing_hash(recovered.snapshot()), packing);
      EXPECT_EQ(sharded_history(recovered), history);
    }
  }
}

}  // namespace
}  // namespace dvbp

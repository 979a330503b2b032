// The `harness` CLI: run one workload through the placement service and
// dump telemetry.
//
// A batch run feeds a workload (a built-in generator or a trace file) to
// one engine -- the serial persist::DurableDispatcher, journaled under
// --journal-dir, or the sharded service under --shards -- with optional
// layers on top: the tenant admission gate (--tenants), bounded migration
// (--migrate-budget/--migrate-volume) and the JSONL decision trace
// (--trace-out). It prints a summary and optionally writes
//   --metrics-out=<path>  one JSON object: the MetricRegistry snapshot;
//   --trace-out=<path>    JSONL decision trace (docs/OBSERVABILITY.md).
// A flag the chosen stack cannot honour is a usage error (exit 2).
//
//   $ harness --generator=uniform --policy=MoveToFront --n=1000 --d=2
//       --mu=10 --metrics-out=metrics.json --trace-out=trace.jsonl
//       --check-roundtrip
//
// --check-roundtrip re-reads the emitted trace, reconstructs the Packing
// via obs::replay_packing_file, and fails (exit 2) unless it matches the
// engine's packing exactly -- the telemetry acceptance gate, also run
// from tests/test_obs_cli.cpp.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cloud/sharded_dispatcher.hpp"
#include "core/event.hpp"
#include "core/instance.hpp"
#include "core/dispatcher.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "core/rebalancer.hpp"
#include "gen/registry.hpp"
#include "gen/tenants.hpp"
#include "harness/cli.hpp"
#include "harness/table.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/replay.hpp"
#include "obs/trace.hpp"
#include "persist/durable.hpp"
#include "persist/journal.hpp"
#include "opt/offline_opt.hpp"
#include "tenancy/accountant.hpp"
#include "tenancy/arbiter.hpp"
#include "tenancy/gate.hpp"
#include "tenancy/report.hpp"
#include "trace/convert.hpp"
#include "trace/format.hpp"
#include "trace/reader.hpp"
#include "trace/reduce.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

namespace {

using namespace dvbp;

int usage() {
  std::cout <<
      "harness: run one workload through the placement service and dump\n"
      "telemetry\n"
      "  workload:  --generator=uniform|zipf|bursty|correlated|diurnal\n"
      "             --n=1000 --d=2 --mu=10 --span=1000 --bin-size=100\n"
      "             --seed=1 --trial=0   (or --trace=<instance.csv|.trc>)\n"
      "  policy:    --policy=MoveToFront --policy-seed=N --capacity=1.0\n"
      "  engine (one of):\n"
      "             serial Dispatcher (the default)\n"
      "             --journal-dir=<dir>  journaled serial engine: write-ahead\n"
      "             journal + checkpoints (docs/DURABILITY.md); the\n"
      "             directory must hold no journaled op yet\n"
      "             --fsync=always|interval|none --fsync-interval=256\n"
      "             --checkpoint-every=N  (journaled ops; 0 = never)\n"
      "             --recover  restore from --journal-dir, report, exit;\n"
      "             no workload is ingested\n"
      "             --shards=K  the sharded placement service: job j\n"
      "             runs on shard j mod K (add --journal-dir for one\n"
      "             journal per shard)\n"
      "  layers:\n"
      "             --migrate-budget=N|inf  migrations allowed per\n"
      "             departure event (amortized; 0 disables repacking)\n"
      "             --migrate-volume=V|inf  L1 volume allowed per event\n"
      "             (docs/MIGRATION.md): a Rebalancer after every\n"
      "             departure\n"
      "             --tenants=T  label the workload with T tenants and put\n"
      "             the credit admission gate in front of the serial engine;\n"
      "             prints the welfare/instant-fairness/utilization report\n"
      "             (docs/TENANCY.md)\n"
      "             --fairshare=w0,w1,...  relative fair shares (default\n"
      "             uniform)  --alpha=0.0  public credit injection rate\n"
      "             --capacity-units=U  admission capacity (bin units;\n"
      "             default: no quota)  --credits=C  starting balances\n"
      "             --price=1.0  --settle-every=T  settlement epoch (sim time)\n"
      "             --inflate-tenant=t --inflate-factor=F  demand-inflation\n"
      "             adversary  --no-arbiter  baseline without gating\n"
      "  outputs:   --metrics-out=<path.json> --trace-out=<path.jsonl>\n"
      "             --check-roundtrip  (replay trace, verify packing)\n"
      "             --quiet\n"
      "  Serial runs compose --journal-dir, --tenants, --migrate-* and\n"
      "  --trace-out in any mix; --shards composes with --journal-dir.\n"
      "  Exit 2 instead of running for: --recover, --fsync,\n"
      "  --fsync-interval or --checkpoint-every without --journal-dir; a\n"
      "  tenancy flag without --tenants; --check-roundtrip without\n"
      "  --trace-out; --shards with --tenants, --trace-out,\n"
      "  --check-roundtrip, --migrate-budget or --migrate-volume;\n"
      "  --recover with --tenants, --migrate-* or --trace-out; a batch run\n"
      "  into a --journal-dir that already holds ops; any run on the other\n"
      "  stack's journal (serial at the root, sharded under shard-<s>/).\n"
      "\n"
      "subcommands (docs/PROTOCOL.md):\n"
      "  harness serve   --port=7070 --shards=K --policy=... [--d=2]\n"
      "                  [--max-inflight=N]\n"
      "                  [--journal-dir=... --fsync=... --checkpoint-every=N]\n"
      "                  [--metrics-out=...]  run the binary-RPC placement\n"
      "                  server: one event loop reads, places, commits and\n"
      "                  answers each request; SIGTERM/SIGINT or a Drain RPC\n"
      "                  drains it\n"
      "  harness loadgen --port=7070 [--host=127.0.0.1] [--connections=4]\n"
      "                  [--window=64 --requests=10000]  closed loop, or\n"
      "                  [--rate=R --duration=1]  open loop, timed from\n"
      "                  each request's due time; synthetic mix [--dim=2]\n"
      "                  [--depart-fraction=0.45] [--seed=42], or\n"
      "                  [--trace=<file.trc>] to its end, with its tenants,\n"
      "                  on one connection by default: more connections\n"
      "                  interleave the trace, so the drained cost is then\n"
      "                  not the trace's\n"
      "                  [--drain]  send a Drain RPC afterwards and report\n"
      "                  the server's final packing hash\n"
      "\n"
      "trace data plane (docs/TRACES.md):\n"
      "  harness trace convert --csv=<in.csv> --out=<out.trc>\n"
      "                  [--tenants] [--strict]  Azure-style CSV\n"
      "                  (vmid,start,end,frac...) -> binary trace\n"
      "  harness trace info    --in=<trc> [--bounds]  header summary and,\n"
      "                  with --bounds, the Lemma-1 OPT lower bounds\n"
      "  harness trace reduce  --in=<trc> --out=<reduced.trc>\n"
      "                  [--size-grid=16] [--time-cells=64] [--no-opt]\n"
      "                  [--node-limit=20000000]  van Bevern-style\n"
      "                  reduction; prints a sound interval on OPT(in)\n"
      "  harness trace run     --in=<trc> [--policy=...] [--capacity=1.0]\n"
      "                  [--bounds] [--metrics-out=...]  streaming replay\n"
      "                  through the live dispatcher (memory: live state,\n"
      "                  plus 4 bytes per trace row)\n";
  return 0;
}

// A typo'd flag silently falling back to its default would corrupt the
// telemetry this CLI exists to report, so every flag set is closed.
// `command` prefixes the message ("serve: ", "" for a batch run).
void reject_unknown_flags(const std::string& command,
                          const std::set<std::string>& known,
                          const harness::Args& args) {
  for (const std::string& key : args.keys()) {
    if (!known.count(key)) {
      throw harness::CliError(command + "unknown flag '--" + key +
                              "' (see --help)");
    }
  }
}

const std::set<std::string> kBatchFlags{
      "generator", "trace",        "policy",    "n",
      "d",         "mu",           "span",      "bin-size",
      "seed",      "trial",        "capacity",  "policy-seed",
      "metrics-out", "trace-out",  "check-roundtrip", "quiet",
      "shards",    "help",
      "journal-dir", "checkpoint-every", "recover", "fsync",
      "fsync-interval", "migrate-budget", "migrate-volume",
      "tenants",   "fairshare",    "alpha",     "capacity-units",
      "credits",   "settle-every", "price",     "inflate-tenant",
      "inflate-factor", "no-arbiter"};

/// The one composition check: every batch flag either reaches a layer of
/// the stack the other flags select, or the run is a usage error (exit 2)
/// before anything is read or written.
void reject_dropped_flags(const harness::Args& args) {
  // {flag, the flag whose stack it configures}
  static const std::pair<const char*, const char*> kNeeds[] = {
      {"recover", "journal-dir"},       {"fsync", "journal-dir"},
      {"fsync-interval", "journal-dir"}, {"checkpoint-every", "journal-dir"},
      {"fairshare", "tenants"},         {"alpha", "tenants"},
      {"capacity-units", "tenants"},    {"credits", "tenants"},
      {"settle-every", "tenants"},      {"price", "tenants"},
      {"inflate-tenant", "tenants"},    {"inflate-factor", "tenants"},
      {"no-arbiter", "tenants"},        {"check-roundtrip", "trace-out"}};
  // {flag, a stack that cannot honour it}: the tenant gate, decision
  // traces and migration are serial-only, and a recovery ingests nothing.
  static const std::pair<const char*, const char*> kExcludes[] = {
      {"tenants", "shards"},         {"trace-out", "shards"},
      {"check-roundtrip", "shards"}, {"migrate-budget", "shards"},
      {"migrate-volume", "shards"},
      {"tenants", "recover"},        {"migrate-budget", "recover"},
      {"migrate-volume", "recover"}, {"trace-out", "recover"}};
  for (const auto& [flag, stack] : kExcludes) {
    if (args.has(flag) && args.has(stack)) {
      throw harness::CliError("--" + std::string(flag) +
                              " cannot be combined with --" + stack);
    }
  }
  for (const auto& [flag, stack] : kNeeds) {
    if (args.has(flag) && !args.has(stack)) {
      throw harness::CliError("--" + std::string(flag) + " requires --" +
                              stack);
    }
  }
}

/// Fail fast on unwritable output paths -- before the (possibly long)
/// simulation runs, so a typo'd path costs nothing. CliError exits 2.
void validate_output_paths(const harness::Args& args) {
  harness::require_writable_file("metrics-out", args.get("metrics-out", ""));
  harness::require_writable_file("trace-out", args.get("trace-out", ""));
  harness::require_writable_dir("journal-dir", args.get("journal-dir", ""));
}

/// A serial engine journals at the --journal-dir root, a sharded service
/// under shard-<s>/, and each recovers only its own layout: opening the
/// other stack's journal would neither replay its ops nor refuse them. A
/// batch run journals a whole stream from its start, so it also needs a
/// directory that holds no op: appending would replay as one doubled run.
void refuse_journal_dir(const harness::Args& args, bool sharded,
                        bool batch) {
  const std::string dir = args.get("journal-dir", "");
  if (dir.empty()) return;
  const cloud::JournalLayout found = cloud::read_journal_layout(dir);
  if (sharded ? found.serial : found.shards > 0) {
    throw harness::CliError(
        "--journal-dir=" + dir + " holds a " +
        (sharded ? "serial journal (at its root)"
                 : "sharded journal (under shard-<s>/)") +
        ", which this stack would not recover; use another directory");
  }
  if (batch && (found.serial || found.shards > 0)) {
    throw harness::CliError(
        "--journal-dir=" + dir +
        " already holds journaled ops; inspect it with --recover, or start "
        "from an empty directory");
  }
}

/// The value of --<flag> (or `fallback` when absent) for a flag held in an
/// unsigned or narrower type T: anything but a decimal integer in
/// [min, max of T] is a usage error, never a silent wrap-around (a
/// --port=70000 listening on 4464, a --checkpoint-every=-1 that never
/// checkpoints).
template <typename T>
T int_flag(const harness::Args& args, const std::string& flag, T fallback,
           T min = 0) {
  if (!args.has(flag)) return fallback;
  const std::string text = args.get(flag, "");
  const char* end = text.data() + text.size();
  T value{};
  const auto parsed = std::from_chars(text.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end || value < min) {
    throw harness::CliError(
        "--" + flag + "=" + text + " is not an integer in [" +
        std::to_string(min) + ", " +
        std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return value;
}

/// Budget values accept "inf"/"unlimited" in addition to numbers, so the
/// unbounded sweep point of bench_migration is expressible from the CLI.
double parse_budget_value(const std::string& flag, const std::string& value,
                          double fallback) {
  if (value.empty()) return fallback;
  if (value == "inf" || value == "unlimited") {
    return MigrationConfig::kUnlimited;
  }
  try {
    const double v = std::stod(value);
    if (v < 0.0) throw std::invalid_argument("negative");
    return v;
  } catch (const std::exception&) {
    throw harness::CliError("--" + flag + "=" + value +
                            " is not a budget (number >= 0, or 'inf')");
  }
}

MigrationConfig parse_migration_config(const harness::Args& args) {
  MigrationConfig config;
  config.migrations_per_event = parse_budget_value(
      "migrate-budget", args.get("migrate-budget", ""), 0.0);
  config.volume_per_event =
      parse_budget_value("migrate-volume", args.get("migrate-volume", ""),
                         MigrationConfig::kUnlimited);
  return config;
}

/// The policy --policy/--policy-seed name; every engine and shard owns one.
PolicyPtr policy_from(const harness::Args& args) {
  return make_policy(args.get("policy", "MoveToFront"),
                     int_flag<std::uint64_t>(args, "policy-seed", 0xD1CEu));
}

/// Writes the registry snapshot to --metrics-out, if given.
void write_metrics(const harness::Args& args,
                   const obs::MetricRegistry& registry) {
  const std::string path = args.get("metrics-out", "");
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open metrics-out '" + path + "'");
  out << registry.to_json() << '\n';
}

/// --journal-dir and the flags of its journal, read once for whichever
/// engine journals: the serial engine, or each shard of the sharded one.
persist::DurableOptions journal_options(const harness::Args& args) {
  persist::DurableOptions options;
  options.dir = args.get("journal-dir", "");
  options.fsync = persist::parse_fsync_policy(args.get("fsync", "interval"));
  // A zero interval would leave the background flusher no gap to sync in.
  options.fsync_interval_ops =
      int_flag<std::size_t>(args, "fsync-interval", 256, 1);
  options.checkpoint_every =
      int_flag<std::size_t>(args, "checkpoint-every", 0);
  return options;
}

/// The sharded service both batch --shards and `serve` run.
cloud::ShardedOptions sharded_options(const harness::Args& args,
                                      const persist::DurableOptions& journal,
                                      obs::MetricRegistry& registry) {
  cloud::ShardedOptions options;
  options.shards = int_flag<std::size_t>(args, "shards", 1, 1);
  options.bin_capacity = args.get_double("capacity", 1.0);
  options.queue_capacity = int_flag<std::size_t>(args, "queue-capacity", 4096);
  options.metrics = &registry;
  options.journal_dir = journal.dir;
  options.fsync = journal.fsync;
  options.fsync_interval_ops = journal.fsync_interval_ops;
  options.checkpoint_every = journal.checkpoint_every;
  return options;
}

Instance load_instance(const harness::Args& args) {
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    std::ifstream in(trace_path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("cannot open trace '" + trace_path + "'");
    }
    // Sniff the magic: --trace accepts both the legacy CSV instance dump
    // and the binary columnar format (docs/TRACES.md).
    char magic[sizeof(trace::kMagic)] = {};
    in.read(magic, sizeof(magic));
    if (in.gcount() == sizeof(magic) &&
        std::memcmp(magic, trace::kMagic, sizeof(magic)) == 0) {
      in.close();
      return trace::TraceReader(trace_path).materialize();
    }
    in.clear();
    in.seekg(0);
    return Instance::from_csv(in);
  }
  gen::UniformParams params;
  params.n = int_flag<std::size_t>(args, "n", 1000);
  params.d = int_flag<std::size_t>(args, "d", 2);
  params.mu = args.get_int("mu", 10);
  params.span = args.get_int("span", 1000);
  params.bin_size = args.get_int("bin-size", 100);
  const auto seed = int_flag<std::uint64_t>(args, "seed", 1);
  const auto trial = int_flag<std::uint64_t>(args, "trial", 0);
  const gen::GeneratorFn generate =
      gen::make_generator(args.get("generator", "uniform"), params, seed);
  return generate(trial);
}

/// The tenant layer (--tenants=T, docs/TENANCY.md): the credit admission
/// gate in front of a serial engine, periodic settlement epochs, and the
/// Karma-style welfare / instant-fairness / utilization report.
/// --no-arbiter disables the quota (every arrival admitted) for the
/// baseline the fairness comparison needs.
struct TenantLayer {
  /// Labels `inst` (tenant-weighted, then optionally lets one greedy
  /// tenant inflate its reported demand).
  TenantLayer(const harness::Args& args, Instance& inst,
              obs::MetricRegistry& registry, obs::Tracer& tracer)
      : arbiter(arbiter_config(args)),
        gate(arbiter, &registry, &tracer),
        accountant(arbiter.config().num_tenants),
        tracker(arbiter.config().num_tenants),
        settle_every(args.get_double("settle-every", 100.0)) {
    if (!(settle_every > 0.0)) {
      throw harness::CliError("--settle-every must be > 0");
    }
    const auto seed = int_flag<std::uint64_t>(args, "seed", 1);
    gen::label_tenants(inst, arbiter.config().fair_shares,
                       seed ^ 0x7e4a7ebef1ull);
    if (args.has("inflate-tenant")) {
      gen::inflate_tenant_demand(
          inst, int_flag<TenantId>(args, "inflate-tenant", 0),
          args.get_double("inflate-factor", 2.0));
    }
    for (std::uint32_t t = 0; t < accountant.num_tenants(); ++t) {
      shares.push_back(arbiter.fair_share(t));
    }
    last_settle = inst.empty() ? 0.0 : inst.first_arrival();
    next_settle = last_settle + settle_every;
  }

  static tenancy::ArbiterConfig arbiter_config(const harness::Args& args) {
    const auto tenants = int_flag<std::uint32_t>(args, "tenants", 2, 1);
    tenancy::ArbiterConfig config;
    config.num_tenants = tenants;
    config.fair_shares.assign(tenants, 1.0);
    if (args.has("fairshare")) {
      const std::vector<std::string> parts = args.get_list("fairshare");
      if (parts.size() != tenants) {
        throw harness::CliError("--fairshare needs exactly --tenants weights");
      }
      for (std::size_t t = 0; t < parts.size(); ++t) {
        config.fair_shares[t] = std::stod(parts[t]);
      }
    }
    config.alpha = args.get_double("alpha", 0.0);
    config.init_credits = args.get_double("credits", 0.0);
    config.price = args.get_double("price", 1.0);
    if (!args.get_bool("no-arbiter") && args.has("capacity-units")) {
      config.capacity_units = args.get_double("capacity-units", 0.0);
    }
    return config;
  }

  /// Closes the settlement epoch at `at`, and journals the settled credit
  /// state when the engine journals.
  void settle(Time at, persist::DurableDispatcher& engine) {
    accountant.on_advance(std::max(at, accountant.last_event()),
                          engine.dispatcher().open_bins());
    const std::vector<double> usage = accountant.cut_epoch();
    tracker.on_epoch(at - last_settle, usage, shares);
    gate.settle(at, usage);
    engine.settle_credits(at, arbiter.state_bytes());
    last_settle = at;
  }

  /// Settles every epoch that ends at or before `now`.
  void settle_until(Time now, persist::DurableDispatcher& engine) {
    while (now >= next_settle) {
      settle(next_settle, engine);
      next_settle += settle_every;
    }
  }

  tenancy::Arbiter arbiter;
  tenancy::AdmissionGate gate;
  tenancy::UsageAccountant accountant;
  tenancy::FairnessTracker tracker;
  std::vector<double> shares;
  double settle_every;
  Time last_settle = 0.0;
  Time next_settle = 0.0;
  std::uint64_t denied = 0;  // pushed back; a batch run drops, not retries
};

/// The one engine a batch run feeds, chosen by the flags: the sharded
/// service under --shards, the serial engine otherwise -- journaled under
/// --journal-dir, whose directory it recovers on construction. Exactly one
/// of the two is set.
struct Engine {
  Engine(const harness::Args& args, const persist::DurableOptions& journal,
         std::size_t dim, obs::MetricRegistry& registry,
         obs::Observer& observer, TenantUsageHook* usage_hook)
      : policy(policy_from(args)) {
    if (args.has("shards")) {
      sharded.emplace(dim,
                      [&args](std::size_t) { return policy_from(args); },
                      sharded_options(args, journal, registry));
      return;
    }
    persist::DurableOptions options = journal;
    options.metrics = &registry;
    options.observer = &observer;
    options.usage_hook = usage_hook;
    serial.emplace(dim, *policy, options, args.get_double("capacity", 1.0));
  }

  /// Admits `item` at its arrival, labelled `tenant`: the serial engine
  /// under its ItemId, the sharded service under the JobId it returns.
  JobId arrive(Item item, TenantId tenant) {
    if (sharded) return sharded->arrive(item.arrival, item.size, item.departure);
    item.tenant = tenant;
    return serial->arrive(item.arrival, item).job;
  }

  void depart(Time now, JobId job) {
    if (sharded) {
      sharded->depart(now, job);
    } else {
      serial->depart(now, job);
    }
  }

  PolicyPtr policy;  // the serial engine's (each shard builds its own)
  std::optional<persist::DurableDispatcher> serial;
  std::optional<cloud::ShardedDispatcher> sharded;
};

/// --recover: what restoring the engine from --journal-dir found, one row
/// per shard (the serial engine is one row), and the cost it carries.
void print_recovery(const Engine& engine) {
  harness::Table table({"shard", "checkpoint_seq", "replayed_ops",
                        "last_seq", "torn_tail", "jobs", "open_bins",
                        "jobs_active"});
  std::vector<const Dispatcher*> dispatchers;
  const auto add = [&](const std::string& shard,
                       const persist::RecoveryReport& rec,
                       const Dispatcher& d) {
    table.add_row(
        {shard, rec.had_checkpoint ? std::to_string(rec.checkpoint_seq) : "-",
         std::to_string(rec.replayed_ops), std::to_string(rec.last_seq),
         rec.torn_tail ? std::to_string(rec.tail_bytes_discarded) + "B"
                       : "no",
         std::to_string(d.jobs_admitted()), std::to_string(d.open_bins()),
         std::to_string(d.jobs_active())});
    dispatchers.push_back(&d);
  };
  if (engine.sharded) {
    for (std::size_t s = 0; s < engine.sharded->shards(); ++s) {
      add(std::to_string(s), engine.sharded->shard_recovery(s),
          engine.sharded->shard_dispatcher(s));
    }
  } else {
    add("-", engine.serial->recovery(), engine.serial->dispatcher());
  }
  Time now = 0.0;
  for (const Dispatcher* d : dispatchers) {
    now = std::max(now, d->last_event_time());
  }
  double cost = 0.0;
  for (const Dispatcher* d : dispatchers) cost += d->cost_so_far(now);
  std::cout << table.to_aligned_text()
            << "cost_so_far: " << harness::Table::num(cost, 1) << '\n';
}

/// Batch mode: one loop over the instance's event stream into one engine,
/// with the tenant gate, migration and the tracer as optional layers.
int run_batch(const harness::Args& args) {
  reject_unknown_flags("", kBatchFlags, args);
  reject_dropped_flags(args);
  const persist::DurableOptions journal = journal_options(args);
  validate_output_paths(args);
  refuse_journal_dir(args, args.has("shards"), !args.get_bool("recover"));
  const MigrationConfig migration = parse_migration_config(args);
  Instance inst = load_instance(args);
  const std::string trace_out = args.get("trace-out", "");
  const bool quiet = args.get_bool("quiet");

  obs::MetricRegistry registry;
  std::shared_ptr<obs::TraceSink> sink;
  if (!trace_out.empty()) sink = std::make_shared<obs::FileSink>(trace_out);
  obs::Tracer tracer(sink);
  obs::Observer observer(&registry, &tracer);
  std::optional<TenantLayer> tenants;
  if (args.has("tenants")) tenants.emplace(args, inst, registry, tracer);
  // An empty instance has not fixed its dimension.
  Engine engine(args, journal, std::max<std::size_t>(inst.dim(), 1),
                registry, observer,
                tenants ? &tenants->accountant : nullptr);

  if (args.get_bool("recover")) {
    if (!quiet) print_recovery(engine);
    write_metrics(args, registry);
    return 0;
  }
  // Migration: the Rebalancer plans against the live dispatcher after
  // every departure and mutates through the engine's evict/replace calls,
  // so under a journal every move is crash-recoverable.
  const Dispatcher* serial =
      engine.serial ? &engine.serial->dispatcher() : nullptr;
  std::optional<Rebalancer> rebalancer;
  if (serial != nullptr &&
      (args.has("migrate-budget") || args.has("migrate-volume"))) {
    rebalancer.emplace(*serial, migration, engine.serial->migration_exec());
  }
  const std::vector<Event> events = build_event_stream(inst);
  // The sharded service names its own jobs; a serial engine returns the
  // ItemId, and a denied arrival leaves kNoItem.
  std::vector<JobId> job_of_item(inst.size(), kNoItem);
  std::size_t peak_open = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const Event& ev : events) {
    const Item& item = inst[ev.item];
    if (tenants) tenants->settle_until(ev.time, *engine.serial);
    if (ev.kind == EventKind::kArrival) {
      if (tenants &&
          !tenants->gate.admit(ev.time, item.tenant, item.size, item.id)) {
        ++tenants->denied;
        continue;
      }
      job_of_item[ev.item] =
          engine.arrive(item, tenants ? item.tenant : kNoTenant);
      if (serial) peak_open = std::max(peak_open, serial->open_bins());
    } else if (job_of_item[ev.item] != kNoItem) {
      engine.depart(ev.time, job_of_item[ev.item]);
      if (tenants) tenants->gate.release(item.tenant, item.size);
      if (rebalancer) rebalancer->on_departure(ev.time);
    }
  }
  if (tenants) {
    const Time end = events.empty() ? tenants->last_settle : events.back().time;
    if (end > tenants->last_settle) tenants->settle(end, *engine.serial);
  }
  if (engine.sharded) engine.sharded->drain();
  if (engine.serial) engine.serial->flush();
  tracer.flush();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  const Packing packing = engine.sharded ? engine.sharded->snapshot()
                                         : engine.serial->packing();

  write_metrics(args, registry);
  if (tenants) {
    std::cout << tenancy::render_report(tenancy::build_report(
        tenants->accountant, tenants->arbiter, tenants->gate,
        tenants->tracker));
  }
  if (!quiet) {
    const std::string policy = args.get("policy", "MoveToFront");
    std::vector<std::string> head{"policy", "items", "cost", "bins"};
    std::vector<std::string> row{policy, std::to_string(inst.size()),
                                 harness::Table::num(packing.cost(), 1),
                                 std::to_string(packing.num_bins())};
    const auto column = [&](std::string name, std::string value) {
      head.push_back(std::move(name));
      row.push_back(std::move(value));
    };
    if (engine.sharded) {
      column("shards", std::to_string(engine.sharded->shards()));
    } else {
      column("peak_open", std::to_string(peak_open));
    }
    if (tenants) {
      column("tenants", std::to_string(tenants->accountant.num_tenants()));
      column("denied", std::to_string(tenants->denied));
    }
    column("fit_failures",
           std::to_string(
               registry.counter("dvbp.alloc.fit_failures_total").value()));
    column("decision_p50_ns",
           harness::Table::num(
               registry.histogram("dvbp.alloc.decision_latency_ns")
                   .quantile(0.5),
               0));
    if (args.has("journal-dir")) {
      column("journal_bytes",
             std::to_string(
                 registry.counter("dvbp.persist.journal_bytes_total")
                     .value()));
      column("checkpoints",
             std::to_string(
                 registry.counter("dvbp.persist.checkpoints_total").value()));
    }
    column("wall_ms", harness::Table::num(wall.count() * 1e3, 2));
    column("arrivals_per_s",
           harness::Table::num(
               wall.count() > 0.0
                   ? static_cast<double>(inst.size()) / wall.count()
                   : 0.0,
               0));
    harness::Table summary(std::move(head));
    summary.add_row(std::move(row));
    std::cout << summary.to_aligned_text();

    if (engine.sharded) {
      harness::Table per_shard({"shard", "jobs", "bins", "cost",
                                "placement_p50_ns"});
      const Time horizon = events.empty() ? 0.0 : events.back().time;
      for (std::size_t s = 0; s < engine.sharded->shards(); ++s) {
        per_shard.add_row(
            {std::to_string(s),
             std::to_string(engine.sharded->shard_jobs_admitted(s)),
             std::to_string(engine.sharded->shard_bins_opened(s)),
             harness::Table::num(
                 engine.sharded->shard_cost_so_far(s, horizon), 1),
             harness::Table::num(
                 registry
                     .histogram("dvbp.shard." + std::to_string(s) +
                                ".placement_latency_ns")
                     .quantile(0.5),
                 0)});
      }
      std::cout << per_shard.to_aligned_text();
    }
    if (rebalancer) {
      const MigrationStats& stats = rebalancer->stats();
      std::cout << "migrations: " << stats.migrations << " (volume "
                << harness::Table::num(stats.migrated_volume, 3)
                << ", bins closed " << stats.bins_closed << ")\n";
    }
    if (!trace_out.empty()) {
      std::cout << "trace:   " << trace_out << " ("
                << tracer.records_emitted() << " records)\n";
    }
    if (args.has("journal-dir")) {
      std::cout << "journal: " << args.get("journal-dir", "") << '\n';
    }
    if (args.has("metrics-out")) {
      std::cout << "metrics: " << args.get("metrics-out", "") << '\n';
    }
  }

  if (args.get_bool("check-roundtrip")) {
    if (packing != obs::replay_packing_file(trace_out)) {
      std::cerr << "harness: trace round-trip MISMATCH\n";
      return 2;
    }
    if (!quiet) std::cout << "trace round-trip: ok\n";
  }
  return 0;
}

/// `harness serve`: the binary-RPC placement server over a fresh sharded
/// service. Blocks until drained (Drain RPC, SIGTERM, or SIGINT), then
/// reports the final packing.
int run_serve(const harness::Args& args) {
  static const std::set<std::string> kKnown{
      "port",           "host",        "shards",      "policy",
      "policy-seed",    "d",           "capacity",    "max-inflight",
      "queue-capacity", "metrics-out", "journal-dir", "fsync",
      "fsync-interval", "checkpoint-every", "quiet",  "help"};
  reject_unknown_flags("serve: ", kKnown, args);
  const persist::DurableOptions journal = journal_options(args);
  validate_output_paths(args);
  refuse_journal_dir(args, true, false);

  const auto dim = int_flag<std::size_t>(args, "d", 2);
  const bool quiet = args.get_bool("quiet");
  obs::MetricRegistry registry;
  net::ServerOptions nopts;
  nopts.host = args.get("host", "127.0.0.1");
  nopts.port = int_flag<std::uint16_t>(args, "port", 7070);
  nopts.max_inflight_per_conn =
      int_flag<std::size_t>(args, "max-inflight", 1024);
  nopts.metrics = &registry;

  // Thread-free: the server's one event loop steps every shard.
  cloud::ShardedCore service(
      dim, [&args](std::size_t) { return policy_from(args); },
      sharded_options(args, journal, registry));
  net::PlacementServer server(service, nopts);
  server.install_signal_drain(SIGTERM);
  server.install_signal_drain(SIGINT);

  // Flushed immediately so wrappers can read the (possibly ephemeral)
  // port before any client connects.
  std::cout << "listening on " << nopts.host << ":" << server.port()
            << std::endl;
  server.wait();

  write_metrics(args, registry);
  // Rethrows what a step or a journal met during the serve (exit 1).
  service.drain();
  if (!quiet) {
    // Drained and quiescent: this hash is what the Drain RPC reported.
    const Packing packing = service.snapshot();
    harness::Table summary(
        {"policy", "shards", "jobs", "bins", "cost", "packing_hash"});
    summary.add_row({args.get("policy", "MoveToFront"),
                     std::to_string(service.shards()),
                     std::to_string(service.jobs_admitted()),
                     std::to_string(packing.num_bins()),
                     harness::Table::num(packing.cost(), 1),
                     std::to_string(packing_hash(packing))});
    std::cout << summary.to_aligned_text();
    if (args.has("metrics-out")) {
      std::cout << "metrics: " << args.get("metrics-out", "") << '\n';
    }
  }
  return 0;
}

/// `harness loadgen`: drive a running placement server and report
/// throughput + latency order statistics.
int run_loadgen_cmd(const harness::Args& args) {
  static const std::set<std::string> kKnown{
      "host",   "port",     "connections", "requests", "window",
      "dim",    "depart-fraction", "seed", "rate",     "duration",
      "drain",  "quiet",    "trace",       "help"};
  reject_unknown_flags("loadgen: ", kKnown, args);
  net::LoadgenOptions opts;
  opts.host = args.get("host", "127.0.0.1");
  opts.port = int_flag<std::uint16_t>(args, "port", 7070);
  opts.trace_path = args.get("trace", "");
  // One connection replays a trace in its order; more interleave it.
  opts.connections = int_flag<std::size_t>(
      args, "connections", opts.trace_path.empty() ? 4 : 1);
  opts.dim = int_flag<std::size_t>(args, "dim", 2);
  opts.depart_fraction = args.get_double("depart-fraction", 0.45);
  opts.seed = int_flag<std::uint64_t>(args, "seed", 42);
  opts.window = int_flag<std::size_t>(args, "window", 64);
  opts.requests_per_connection =
      int_flag<std::uint64_t>(args, "requests", 10000);
  opts.open_loop_rate = args.get_double("rate", 0.0);
  opts.duration_s = args.get_double("duration", 1.0);

  // A flag the chosen source or pacing does not read is a usage error, as
  // in batch mode, not a silent no-op.
  const bool open = opts.open_loop_rate > 0.0;
  const bool trace = !opts.trace_path.empty();
  const std::string mode =
      std::string(trace ? "trace" : "synthetic") + (open ? "/open" : "/closed");
  for (const auto& [flag, read] :
       {std::pair{"window", !open}, {"requests", !open && !trace},
        {"duration", open && !trace}, {"dim", !trace},
        {"depart-fraction", !trace}, {"seed", !trace}}) {
    if (!read && args.has(flag)) {
      throw harness::CliError("loadgen: --" + std::string(flag) +
                              " is not read in " + mode + " mode");
    }
  }

  const net::LoadgenResult r = net::run_loadgen(opts);
  harness::Table summary({"mode", "conns", "sent", "ok", "retry_later",
                          "throughput_rps", "p50_us", "p99_us", "p999_us",
                          "late_p99_us"});
  summary.add_row({mode,
                   std::to_string(opts.connections),
                   std::to_string(r.requests_sent), std::to_string(r.ok),
                   std::to_string(r.retry_later),
                   harness::Table::num(r.throughput_rps, 0),
                   harness::Table::num(r.p50_ns / 1e3, 1),
                   harness::Table::num(r.p99_ns / 1e3, 1),
                   harness::Table::num(r.p999_ns / 1e3, 1),
                   harness::Table::num(r.late_p99_ns / 1e3, 1)});
  std::cout << summary.to_aligned_text();

  if (args.get_bool("drain")) {
    net::Client client(opts.host, opts.port);
    const net::Response resp = client.drain();
    if (resp.status != net::Status::kOk) {
      std::cerr << "loadgen: drain failed: "
                << net::status_name(resp.status) << '\n';
      return 1;
    }
    std::cout << "drained: packing_hash=" << resp.packing_hash
              << " bins=" << resp.num_bins
              << " cost=" << harness::Table::num(resp.cost, 1) << '\n';
  }
  return 0;
}

std::string require_flag(const harness::Args& args, const std::string& sub,
                         const std::string& flag) {
  const std::string v = args.get(flag, "");
  if (v.empty()) {
    throw harness::CliError("trace " + sub + ": --" + flag + " is required");
  }
  return v;
}

/// `harness trace <convert|info|reduce|run>`: the binary trace data plane
/// (docs/TRACES.md).
int run_trace_cmd(const harness::Args& args) {
  if (args.positional().size() < 2) {
    throw harness::CliError(
        "trace: need a subcommand (convert|info|reduce|run; see --help)");
  }
  const std::string& sub = args.positional()[1];
  const std::string command = "trace " + sub + ": ";
  const bool quiet = args.get_bool("quiet");

  if (sub == "convert") {
    reject_unknown_flags(
        command, {"csv", "out", "tenants", "strict", "quiet", "help"}, args);
    const std::string csv = require_flag(args, sub, "csv");
    const std::string out = require_flag(args, sub, "out");
    harness::require_writable_file("out", out);
    trace::ConvertOptions copts;
    copts.tenants = args.get_bool("tenants");
    copts.strict = args.get_bool("strict");
    const trace::ConvertStats stats = trace::convert_csv_file(csv, out, copts);
    if (!quiet) {
      harness::Table t({"rows_read", "items_written", "rows_skipped", "d",
                        "tenants", "out"});
      t.add_row({std::to_string(stats.rows_read),
                 std::to_string(stats.items_written),
                 std::to_string(stats.rows_skipped),
                 std::to_string(stats.dim), std::to_string(stats.tenants),
                 out});
      std::cout << t.to_aligned_text();
    }
    return 0;
  }

  if (sub == "info") {
    reject_unknown_flags(command, {"in", "bounds", "quiet", "help"}, args);
    const trace::TraceReader reader(require_flag(args, sub, "in"));
    harness::Table t({"items", "events", "d", "tenants", "bytes",
                      "first_arrival", "last_departure"});
    t.add_row({std::to_string(reader.size()),
               std::to_string(2 * reader.size()),
               std::to_string(reader.dim()),
               reader.has_tenants() ? "yes" : "no",
               std::to_string(reader.file_bytes()),
               harness::Table::num(reader.first_arrival(), 3),
               harness::Table::num(reader.last_departure(), 3)});
    std::cout << t.to_aligned_text();
    if (args.get_bool("bounds")) {
      const trace::StreamBounds b = trace::streaming_lower_bounds(reader);
      harness::Table lb({"lb_height", "lb_utilization", "lb_span",
                         "lb_best"});
      lb.add_row({harness::Table::num(b.height, 3),
                  harness::Table::num(b.utilization, 3),
                  harness::Table::num(b.span, 3),
                  harness::Table::num(b.best(), 3)});
      std::cout << lb.to_aligned_text();
    }
    return 0;
  }

  if (sub == "reduce") {
    reject_unknown_flags(command,
                         {"in", "out", "size-grid", "time-cells", "no-opt",
                          "node-limit", "quiet", "help"},
                         args);
    const std::string in_path = require_flag(args, sub, "in");
    const std::string out = require_flag(args, sub, "out");
    harness::require_writable_file("out", out);
    const trace::TraceReader reader(in_path);
    trace::ReduceOptions ropts;
    ropts.size_grid = int_flag<std::uint32_t>(args, "size-grid", 16);
    ropts.time_cells = int_flag<std::uint32_t>(args, "time-cells", 64);
    const trace::ReduceResult r = trace::reduce_trace(reader, out, ropts);
    if (!quiet) {
      harness::Table t({"items_in", "items_out", "groups", "size_grid",
                        "time_cells", "out"});
      t.add_row({std::to_string(r.original_items),
                 std::to_string(r.reduced_items), std::to_string(r.groups),
                 std::to_string(r.size_grid), std::to_string(r.time_cells),
                 out});
      std::cout << t.to_aligned_text();
    }
    // The reported interval brackets OPT(in): the lower end is Lemma 1 on
    // the ORIGINAL trace; the upper end is offline_opt on the reduced
    // (dominating) instance -- an upper bound even when the VBP search
    // aborts on its node limit (offline_opt reports cost >= OPT then).
    if (!args.get_bool("no-opt")) {
      VbpOptions vopts;
      vopts.node_limit =
          int_flag<std::uint64_t>(args, "node-limit", 20'000'000);
      const Instance reduced = trace::TraceReader(out).materialize();
      const OfflineOptResult opt = offline_opt(reduced, vopts);
      harness::Table t({"opt_lower", "opt_upper", "upper_exact",
                        "segments", "max_active"});
      t.add_row({harness::Table::num(r.original_bounds.best(), 3),
                 harness::Table::num(opt.cost, 3),
                 opt.exact ? "yes" : "no (node limit)",
                 std::to_string(opt.segments),
                 std::to_string(opt.max_active)});
      std::cout << t.to_aligned_text();
    } else if (!quiet) {
      harness::Table t({"opt_lower"});
      t.add_row({harness::Table::num(r.original_bounds.best(), 3)});
      std::cout << t.to_aligned_text();
    }
    return 0;
  }

  if (sub == "run") {
    reject_unknown_flags(command,
                         {"in", "policy", "policy-seed", "capacity",
                          "bounds", "metrics-out", "quiet", "help"},
                         args);
    const std::string metrics_out = args.get("metrics-out", "");
    harness::require_writable_file("metrics-out", metrics_out);
    const trace::TraceReader reader(require_flag(args, sub, "in"));
    const std::string policy_name = args.get("policy", "MoveToFront");
    const PolicyPtr policy = policy_from(args);

    obs::MetricRegistry registry;
    trace::ReplayOptions opts;
    opts.bin_capacity = args.get_double("capacity", 1.0);
    opts.metrics = &registry;
    const auto start = std::chrono::steady_clock::now();
    const trace::ReplayResult r = trace::replay_trace(reader, *policy, opts);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;

    write_metrics(args, registry);
    if (!quiet) {
      const double eps = wall.count() > 0.0
                             ? static_cast<double>(r.events) / wall.count()
                             : 0.0;
      harness::Table t({"policy", "items", "events", "cost", "bins",
                        "peak_open", "wall_ms", "events_per_s"});
      t.add_row({policy_name, std::to_string(r.items),
                 std::to_string(r.events), harness::Table::num(r.cost, 1),
                 std::to_string(r.bins_opened),
                 std::to_string(r.max_open_bins),
                 harness::Table::num(wall.count() * 1e3, 2),
                 harness::Table::num(eps, 0)});
      std::cout << t.to_aligned_text();
      if (args.get_bool("bounds")) {
        const trace::StreamBounds b = trace::streaming_lower_bounds(reader);
        const double lb = b.best();
        harness::Table vs({"opt_lower", "cost_vs_opt_lower"});
        vs.add_row({harness::Table::num(lb, 3),
                    lb > 0.0 ? harness::Table::num(r.cost / lb, 4) : "-"});
        std::cout << vs.to_aligned_text();
      }
      if (!metrics_out.empty()) {
        std::cout << "metrics: " << metrics_out << '\n';
      }
    }
    return 0;
  }

  throw harness::CliError("trace: unknown subcommand '" + sub +
                          "' (convert|info|reduce|run)");
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Args args(argc, argv);
  if (args.get_bool("help")) return usage();
  try {
    if (!args.positional().empty()) {
      const std::string& cmd = args.positional().front();
      if (cmd == "serve") return run_serve(args);
      if (cmd == "loadgen") return run_loadgen_cmd(args);
      if (cmd == "trace") return run_trace_cmd(args);
      throw harness::CliError("unknown subcommand '" + cmd +
                              "' (see --help)");
    }
    return run_batch(args);
  } catch (const harness::CliError& e) {
    std::cerr << "harness: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "harness: " << e.what() << '\n';
    return 1;
  }
}

// End-to-end test of the `harness` CLI telemetry flags: runs the real
// binary (path passed as argv[1] by CTest) with --metrics-out/--trace-out,
// then consumes both artifacts -- the metrics snapshot must be valid JSON
// with the expected allocator counters, and the JSONL trace must replay
// into a structurally complete Packing. Every batch stack (migration,
// tenant gate, journal, shards) is driven through the binary too, and what
// it reports in --metrics-out (and the serial --recover cost line) is
// pinned against the library run in-process. `harness serve` runs as a
// child process under `harness loadgen`, and out of file descriptors,
// where it must idle until clients close; it runs one event loop and no
// shard worker; a journal directory refuses the other stack's layout.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/instance.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "core/rebalancer.hpp"
#include "core/simulator.hpp"
#include "gen/registry.hpp"
#include "net/client.hpp"
#include "obs/json.hpp"
#include "obs/replay.hpp"

namespace dvbp::obs {
namespace {

std::string g_harness_bin;  // set from argv[1] in main() below

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The instance `harness --n=<n> --d=2 --mu=8` generates (every other
/// workload flag at its CLI default).
Instance cli_instance(std::size_t n) {
  gen::UniformParams params;
  params.n = n;
  params.d = 2;
  params.mu = 8;
  params.span = 1000;
  params.bin_size = 100;
  return gen::make_generator("uniform", params, 1)(0);
}

/// A fresh, not yet existing directory path under the test temp dir.
std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = ::testing::TempDir() + "harness_cli_" + tag + "_" +
                          std::to_string(++counter) + "_" +
                          std::to_string(static_cast<unsigned>(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

/// Every file under `dir` by relative path, with its bytes.
std::map<std::string, std::string> tree_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    const std::string rel =
        std::filesystem::relative(entry.path(), dir).string();
    files[rel] = entry.is_regular_file() ? slurp(entry.path().string())
                                         : std::string("<dir>");
  }
  return files;
}

/// The whitespace-separated fields of the first line of `text` that
/// starts with `prefix`; empty when there is none.
std::vector<std::string> row_fields(const std::string& text,
                                    const std::string& prefix) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream words(line);
    std::vector<std::string> fields;
    for (std::string w; words >> w;) fields.push_back(w);
    return fields;
  }
  return {};
}

/// The number after "cost_so_far: " in `out`; NaN when the line is absent.
double cost_line(const std::string& out) {
  const std::string key = "cost_so_far: ";
  const auto at = out.find(key);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::stod(out.substr(at + key.size()));
}

class HarnessCli : public ::testing::Test {
 protected:
  void SetUp() override {
    if (g_harness_bin.empty()) {
      GTEST_SKIP() << "harness binary path not provided";
    }
    metrics_path_ = ::testing::TempDir() + "harness_cli_metrics.json";
    trace_path_ = ::testing::TempDir() + "harness_cli_trace.jsonl";
  }
  void TearDown() override {
    std::remove(metrics_path_.c_str());
    std::remove(trace_path_.c_str());
  }

  int run(const std::string& flags) {
    const std::string cmd = "\"" + g_harness_bin + "\" " + flags;
    return std::system(cmd.c_str());
  }

  struct Captured {
    int exit_code = -1;  // -1 unless the binary exited normally
    std::string text;    // stdout and stderr
  };
  /// Runs the binary with `flags`; `prefix` runs it under another command
  /// (e.g. "timeout 10").
  Captured capture(const std::string& flags, const std::string& prefix = "") {
    const std::string cmd =
        prefix + " \"" + g_harness_bin + "\" " + flags + " 2>&1";
    Captured out;
    FILE* pipe = ::popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    if (pipe == nullptr) return out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
      out.text.append(buf, n);
    }
    const int status = ::pclose(pipe);
    if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
    return out;
  }

  /// One counter (or gauge) of the --metrics-out snapshot.
  double metric(const std::string& name) {
    const auto value = scan_json_number(slurp(metrics_path_), name);
    EXPECT_TRUE(value.has_value()) << name;
    return value.value_or(-1.0);
  }

  std::string metrics_path_;
  std::string trace_path_;
};

TEST_F(HarnessCli, WritesConsumableMetricsAndTrace) {
  constexpr std::size_t kItems = 300;
  const int rc = run("--n=" + std::to_string(kItems) +
                     " --d=2 --mu=8 --policy=FirstFit --quiet" +
                     " --metrics-out=" + metrics_path_ +
                     " --trace-out=" + trace_path_ + " --check-roundtrip");
  ASSERT_EQ(rc, 0);

  // Metrics snapshot: one JSON object with the allocator counters.
  const std::string json = slurp(metrics_path_);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(scan_json_number(json, "dvbp.alloc.arrivals_total"),
            static_cast<double>(kItems));
  EXPECT_EQ(scan_json_number(json, "dvbp.alloc.placements_total"),
            static_cast<double>(kItems));
  const auto bins_opened =
      scan_json_number(json, "dvbp.alloc.bins_opened_total");
  ASSERT_TRUE(bins_opened.has_value());
  EXPECT_GT(*bins_opened, 0.0);
  EXPECT_EQ(scan_json_number(json, "dvbp.alloc.bins_closed_total"),
            *bins_opened);
  EXPECT_EQ(scan_json_number(json, "dvbp.alloc.open_bins"), 0.0);

  // Decision trace: replays into a complete packing.
  const Packing packing = replay_packing_file(trace_path_);
  EXPECT_EQ(packing.num_bins(), static_cast<std::size_t>(*bins_opened));
  ASSERT_EQ(packing.assignment().size(), kItems);
  for (const BinId bin : packing.assignment()) {
    EXPECT_NE(bin, kNoBin);
  }
  std::size_t items_in_bins = 0;
  for (const BinRecord& bin : packing.bins()) {
    EXPECT_GE(bin.closed, bin.opened);
    items_in_bins += bin.items.size();
  }
  EXPECT_EQ(items_in_bins, kItems);
}

TEST_F(HarnessCli, RoundTripHoldsUnderAugmentationAndOtherPolicies) {
  // The CSV's rows are not in arrival order, so its ItemIds differ from
  // arrival ranks; the trace must still name ItemIds.
  const std::string csv = ::testing::TempDir() + "harness_cli_unsorted.csv";
  { std::ofstream(csv) << "5,9,0.6\n0,4,0.7\n1,6,0.5\n2,8,0.2\n"; }
  for (const std::string& input :
       {std::string("--n=200 --d=2 --mu=6 --capacity=1.3"),
        "--trace=" + csv}) {
    for (const std::string policy : {"MoveToFront", "BestFit", "FirstFit"}) {
      const int rc = run(input + " --policy=" + policy +
                         " --quiet --trace-out=" + trace_path_ +
                         " --check-roundtrip");
      EXPECT_EQ(rc, 0) << input << " --policy=" << policy;
    }
  }
  // The round-trip alone would also pass if the harness named arrival
  // ranks; the packing must be the one simulate() reports by ItemId.
  std::ifstream in(csv);
  const Instance inst = Instance::from_csv(in);
  for (const std::string policy : {"MoveToFront", "BestFit", "FirstFit"}) {
    ASSERT_EQ(run("--trace=" + csv + " --policy=" + policy +
                  " --quiet --trace-out=" + trace_path_),
              0);
    EXPECT_EQ(packing_hash(replay_packing_file(trace_path_)),
              packing_hash(simulate(inst, policy).packing))
        << policy;
  }
  std::remove(csv.c_str());
}

TEST_F(HarnessCli, MigrationStackReportsTheRebalancerMoves) {
  ASSERT_EQ(run("--n=300 --d=2 --mu=8 --policy=BestFit --migrate-budget=4"
                " --quiet --metrics-out=" + metrics_path_),
            0);
  const Instance inst = cli_instance(300);
  PolicyPtr policy = make_policy("BestFit");
  Dispatcher d(inst.dim(), *policy);
  Rebalancer rebalancer(d, MigrationConfig{.migrations_per_event = 4.0});
  std::vector<JobId> job_of(inst.size(), kNoItem);
  for (const Event& ev : build_event_stream(inst)) {
    const Item& item = inst[ev.item];
    if (ev.kind == EventKind::kArrival) {
      job_of[ev.item] = d.arrive(item.arrival, item.size, item.departure).job;
    } else {
      d.depart(ev.time, job_of[ev.item]);
      rebalancer.on_departure(ev.time);
    }
  }
  ASSERT_GT(rebalancer.stats().migrations, 0u);
  EXPECT_EQ(metric("dvbp.migrate.migrations_total"),
            static_cast<double>(rebalancer.stats().migrations));
  EXPECT_EQ(metric("dvbp.migrate.bins_closed_total"),
            static_cast<double>(rebalancer.stats().bins_closed));
  EXPECT_EQ(metric("dvbp.alloc.bins_opened_total"),
            static_cast<double>(d.bins_opened()));
}

TEST_F(HarnessCli, TenantStackGatesEveryArrival) {
  const std::string workload =
      "--n=300 --d=2 --mu=8 --policy=BestFit --tenants=4 --quiet"
      " --metrics-out=" + metrics_path_;
  ASSERT_EQ(run(workload + " --capacity-units=3 >/dev/null"), 0);
  const double admitted = metric("dvbp.tenant.admitted_total");
  const double denied = metric("dvbp.tenant.denied_total");
  EXPECT_GT(denied, 0.0);
  EXPECT_EQ(admitted + denied, 300.0);
  EXPECT_EQ(metric("dvbp.alloc.arrivals_total"), admitted);
  EXPECT_EQ(metric("dvbp.alloc.departures_total"), admitted);

  // Without the arbiter every job is admitted: the plain packing.
  ASSERT_EQ(run(workload + " --no-arbiter >/dev/null"), 0);
  EXPECT_EQ(metric("dvbp.tenant.denied_total"), 0.0);
  EXPECT_EQ(metric("dvbp.alloc.bins_opened_total"),
            static_cast<double>(
                simulate(cli_instance(300), "BestFit").bins_opened));
}

TEST_F(HarnessCli, JournalStackJournalsEveryOpAndRecoversTheCost) {
  const std::string dir = fresh_dir("wal");
  const std::string workload =
      "--n=300 --d=2 --mu=8 --policy=BestFit --journal-dir=" + dir;
  ASSERT_EQ(run(workload + " --checkpoint-every=128 --quiet --metrics-out=" +
                metrics_path_),
            0);
  EXPECT_EQ(metric("dvbp.persist.journal_commits_total"), 600.0);
  EXPECT_EQ(metric("dvbp.persist.checkpoints_total"), 4.0);  // 600 / 128
  const double journal_bytes = metric("dvbp.persist.journal_bytes_total");
  EXPECT_NEAR(cost_line(capture(workload + " --recover").text),
              simulate(cli_instance(300), "BestFit").cost, 0.05);

  // Sharded, every op lands in exactly one shard journal: the frames are
  // fixed-size, so the bytes match the serial journal's.
  const std::string sharded_dir = fresh_dir("wal");
  ASSERT_EQ(run("--n=300 --d=2 --mu=8 --shards=2 --quiet --journal-dir=" +
                sharded_dir + " --metrics-out=" + metrics_path_),
            0);
  EXPECT_EQ(metric("dvbp.persist.journal_bytes_total"), journal_bytes);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(sharded_dir);
}

TEST_F(HarnessCli, ShardedStackSplitsTheStreamAcrossShards) {
  ASSERT_EQ(run("--n=300 --d=2 --mu=8 --shards=2 --quiet --metrics-out=" +
                metrics_path_),
            0);
  // Round-robin: each shard applies half the arrivals and their departures.
  EXPECT_EQ(metric("dvbp.shard.0.ops_applied_total"), 300.0);
  EXPECT_EQ(metric("dvbp.shard.1.ops_applied_total"), 300.0);
  EXPECT_EQ(metric("dvbp.alloc.arrivals_total"), 300.0);

  // One shard is the serial engine, bin for bin.
  ASSERT_EQ(run("--n=300 --d=2 --mu=8 --shards=1 --quiet --metrics-out=" +
                metrics_path_),
            0);
  EXPECT_EQ(metric("dvbp.alloc.bins_opened_total"),
            static_cast<double>(
                simulate(cli_instance(300), "MoveToFront").bins_opened));
}

TEST_F(HarnessCli, FailsCleanlyOnBadInput) {
  EXPECT_NE(run("--policy=NoSuchPolicy --quiet"), 0);
  const int rc = run("--quiet --check-roundtrip");  // needs --trace-out
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2);
}

TEST_F(HarnessCli, FlagsNoStackCanHonourExitWithCode2) {
  const std::string dir = fresh_dir("rejected");
  const std::string recover = "--journal-dir=" + dir + " --recover ";
  // {flags, the flag the message must name}
  const std::pair<std::string, std::string> rejected[] = {
      {"--router=round-robin", "--router"},
      {"--recover", "--recover"},
      {"--fsync=always", "--fsync"},
      {"--fsync-interval=8", "--fsync-interval"},
      {"--checkpoint-every=8", "--checkpoint-every"},
      {"--fairshare=1,1", "--fairshare"},
      {"--alpha=0.1", "--alpha"},
      {"--capacity-units=4", "--capacity-units"},
      {"--credits=1", "--credits"},
      {"--settle-every=10", "--settle-every"},
      {"--price=2", "--price"},
      {"--inflate-tenant=0", "--inflate-tenant"},
      {"--inflate-factor=2", "--inflate-factor"},
      {"--no-arbiter", "--no-arbiter"},
      {"--check-roundtrip", "--check-roundtrip"},
      {"--shards=2 --tenants=2", "--tenants"},
      {"--shards=2 --trace-out=" + trace_path_, "--trace-out"},
      {"--shards=2 --check-roundtrip", "--check-roundtrip"},
      {"--shards=2 --migrate-budget=1", "--migrate-budget"},
      {"--shards=2 --migrate-volume=1", "--migrate-volume"},
      {recover + "--tenants=2", "--tenants"},
      {recover + "--migrate-budget=1", "--migrate-budget"},
      {recover + "--migrate-volume=1", "--migrate-volume"},
      {recover + "--trace-out=" + trace_path_, "--trace-out"},
  };
  for (const auto& [flags, named] : rejected) {
    const Captured out = capture("--n=50 --quiet " + flags);
    EXPECT_EQ(out.exit_code, 2) << flags;
    EXPECT_NE(out.text.find(named), std::string::npos) << flags;
  }
  // Rejected before anything is read or written.
  EXPECT_FALSE(std::filesystem::exists(dir));
  // serve takes no --router either: every job runs on shard id mod K.
  // Bounded, so a serve that took the flag fails here instead of serving.
  const Captured serve =
      capture("serve --port=0 --router=round-robin", "timeout 10");
  EXPECT_EQ(serve.exit_code, 2);
  EXPECT_NE(serve.text.find("--router"), std::string::npos) << serve.text;
}

TEST_F(HarnessCli, ComposedSerialStackRoundTripsAndRecovers) {
  const std::string dir = fresh_dir("composed");
  const std::string workload =
      "--n=400 --d=2 --mu=8 --policy=BestFit --journal-dir=" + dir;
  ASSERT_EQ(run(workload + " --tenants=4 --capacity-units=3"
                " --migrate-budget=2 --trace-out=" + trace_path_ +
                " --check-roundtrip --quiet --metrics-out=" + metrics_path_ +
                " >/dev/null"),
            0);
  // Every layer did its part.
  EXPECT_GT(metric("dvbp.tenant.denied_total"), 0.0);
  EXPECT_GT(metric("dvbp.tenant.settlements_total"), 0.0);
  EXPECT_GT(metric("dvbp.migrate.migrations_total"), 0.0);
  EXPECT_EQ(metric("dvbp.persist.journal_commits_total"),
            2.0 * metric("dvbp.tenant.admitted_total") +
                2.0 * metric("dvbp.migrate.migrations_total") +
                metric("dvbp.tenant.settlements_total"));
  // The journal recovers the packing the trace records.
  EXPECT_NEAR(cost_line(capture(workload + " --recover").text),
              replay_packing_file(trace_path_).cost(), 0.05);
  std::filesystem::remove_all(dir);
}

TEST_F(HarnessCli, BatchRunIntoAUsedJournalIsRefused) {
  for (const std::string stack : {"", " --shards=2"}) {
    SCOPED_TRACE(stack);
    const std::string dir = fresh_dir("used");
    const std::string workload =
        "--n=200 --d=2 --mu=8 --quiet --journal-dir=" + dir + stack;
    ASSERT_EQ(run(workload), 0);
    const Captured again = capture(workload);
    EXPECT_EQ(again.exit_code, 2);
    EXPECT_NE(again.text.find("--recover"), std::string::npos);
    // The journal still holds the first run only: 2 ops per job.
    ASSERT_EQ(run(workload + " --recover --metrics-out=" + metrics_path_), 0);
    EXPECT_EQ(metric("dvbp.persist.replayed_ops_total"), 400.0);
    std::filesystem::remove_all(dir);
  }
}

TEST_F(HarnessCli, AJournalDirRefusesTheOtherStacksLayout) {
  // A serial engine journals at the directory's root, a sharded service
  // under shard-<s>/, and each recovers only its own layout. Either
  // stack, batch or --recover, refuses the other's journal before it
  // writes a byte.
  for (const auto& [first, second, named] :
       {std::tuple<std::string, std::string, std::string>{
            "", " --shards=2", "serial journal"},
        {" --shards=2", "", "sharded journal"}}) {
    SCOPED_TRACE(first);
    const std::string dir = fresh_dir("layout");
    const std::string workload =
        "--n=200 --d=2 --mu=8 --seed=3 --quiet --journal-dir=" + dir;
    ASSERT_EQ(run(workload + first), 0);
    const auto before = tree_bytes(dir);
    for (const char* mode : {"", " --recover"}) {
      const Captured out = capture(workload + second + mode);
      EXPECT_EQ(out.exit_code, 2) << mode;
      EXPECT_NE(out.text.find(named), std::string::npos) << out.text;
    }
    EXPECT_EQ(tree_bytes(dir), before);
    std::filesystem::remove_all(dir);
  }
}

TEST_F(HarnessCli, LoadgenReplaysATraceInOpenLoopAgainstServe) {
  // serve runs as a child; its port comes from the "listening on" line.
  const std::string cmd =
      "\"" + g_harness_bin + "\" serve --port=0 --shards=2 2>&1";
  FILE* serve = ::popen(cmd.c_str(), "r");
  ASSERT_NE(serve, nullptr);
  char line[512] = {};
  ASSERT_NE(std::fgets(line, sizeof(line), serve), nullptr);
  const std::string listening = line;
  ASSERT_EQ(listening.rfind("listening on ", 0), 0u) << listening;
  const std::string port =
      std::to_string(std::stoi(listening.substr(listening.rfind(':') + 1)));

  const Captured out = capture("loadgen --port=" + port + " --trace=" +
                               DVBP_SAMPLE_TRC +
                               " --rate=2000 --connections=2 --drain");
  if (out.exit_code != 0) {
    // Drain the server anyway, so this test fails instead of hanging.
    try {
      net::Client("127.0.0.1", static_cast<std::uint16_t>(std::stoi(port)))
          .drain();
    } catch (const std::exception&) {
    }
  }
  std::string served;
  while (std::fgets(line, sizeof(line), serve) != nullptr) served += line;
  const int status = ::pclose(serve);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << served;

  // 500 tenant-labelled items: every one of the 1,000 events is OK.
  ASSERT_EQ(out.exit_code, 0) << out.text;
  const std::vector<std::string> row = row_fields(out.text, "trace/open");
  ASSERT_GE(row.size(), 4u) << out.text;
  EXPECT_EQ(row[2], "1000");  // sent
  EXPECT_EQ(row[3], "1000");  // ok
  // The hash the Drain RPC reported is the one serve prints at exit.
  const std::string key = "drained: packing_hash=";
  const auto at = out.text.find(key);
  ASSERT_NE(at, std::string::npos) << out.text;
  const std::string hash = out.text.substr(
      at + key.size(), out.text.find(' ', at + key.size()) - at - key.size());
  EXPECT_NE(served.find(" " + hash), std::string::npos) << served;
}

/// CPU seconds (user + system) process `pid` has used so far.
double cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string skip;
  for (int f = 3; f < 14; ++f) fields >> skip;
  double utime = 0.0, stime = 0.0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Threads a sanitizer runtime adds to every threaded process: TSan's
/// background thread.
#if defined(__SANITIZE_THREAD__)
constexpr std::size_t kRuntimeThreads = 1;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr std::size_t kRuntimeThreads = 1;
#else
constexpr std::size_t kRuntimeThreads = 0;
#endif
#else
constexpr std::size_t kRuntimeThreads = 0;
#endif

/// Threads of process `pid`: /proc/<pid>/task holds one entry per thread.
std::size_t task_count(pid_t pid) {
  const std::filesystem::directory_iterator tasks(
      "/proc/" + std::to_string(pid) + "/task");
  return static_cast<std::size_t>(std::distance(
      std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

/// `harness serve <flags>` as a child process, with at most `max_fds`
/// descriptors when that is not 0. Its port comes from the "listening on"
/// line (0 when the line never came). The child does not outlive the
/// object.
struct ServeChild {
  explicit ServeChild(std::vector<std::string> flags, rlim_t max_fds = 0) {
    flags.insert(flags.begin(), {g_harness_bin, "serve"});
    std::vector<char*> argv;
    for (std::string& flag : flags) argv.push_back(flag.data());
    argv.push_back(nullptr);
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      ADD_FAILURE() << "pipe";
      return;
    }
    pid = ::fork();
    if (pid == 0) {
      if (max_fds > 0) {
        const rlimit limit{max_fds, max_fds};
        ::setrlimit(RLIMIT_NOFILE, &limit);
      }
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    out.reset(::fdopen(pipe_fds[0], "r"));
    char line[512] = {};
    if (pid < 0 || std::fgets(line, sizeof(line), out.get()) == nullptr) {
      ADD_FAILURE() << "serve did not start";
      return;
    }
    const std::string listening = line;
    if (listening.rfind("listening on ", 0) != 0) {
      ADD_FAILURE() << listening;
      return;
    }
    port = static_cast<std::uint16_t>(
        std::stoi(listening.substr(listening.rfind(':') + 1)));
  }
  ~ServeChild() {
    if (pid > 0 && status == -1) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  /// Waits for the child to exit; true when it exited with code 0.
  bool exits_cleanly() {
    if (pid <= 0 || ::waitpid(pid, &status, 0) != pid) return false;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  pid_t pid = -1;
  int status = -1;  ///< the wait status once exits_cleanly() reaped it
  std::uint16_t port = 0;
  std::unique_ptr<FILE, int (*)(FILE*)> out{nullptr, &std::fclose};
};

TEST_F(HarnessCli, ServeOutOfDescriptorsIdlesUntilClientsClose) {
  // serve runs as a child with 24 descriptors.
  ServeChild child({"--port=0", "--shards=1"}, 24);
  ASSERT_NE(child.port, 0);
  const pid_t pid = child.pid;
  const std::uint16_t port = child.port;

  // A first client's whole life -- connect, PING, close -- runs while
  // descriptors are plenty. (A sanitizer build checks each dynamic type
  // once, and that check needs spare descriptors of its own.)
  {
    net::Client first("127.0.0.1", port);
    ASSERT_EQ(first.ping().status, net::Status::kOk);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // More clients than serve has descriptors left: the rest stay queued.
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int i = 0; i < 40; ++i) {
    clients.push_back(std::make_unique<net::Client>("127.0.0.1", port));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double before = cpu_seconds(pid);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_LT(cpu_seconds(pid) - before, 0.2)
      << "serve spins while accept4 has no descriptor";

  // Once 30 clients close, a new client is accepted and answered.
  clients.resize(10);
  net::Client late("127.0.0.1", port);
  late.send_ping();
  late.flush();
  const auto pong = late.recv_response(std::chrono::steady_clock::now() +
                                       std::chrono::seconds(10));
  ASSERT_TRUE(pong.has_value()) << "no answer once descriptors freed";
  EXPECT_EQ(pong->status, net::Status::kOk);
  EXPECT_EQ(late.drain().status, net::Status::kOk);
  clients.clear();
  EXPECT_TRUE(child.exits_cleanly());
}

TEST_F(HarnessCli, ServeRunsOneEventLoopAndNoShardWorker) {
  // main and the event loop; fsync=interval adds a journal flusher per
  // shard.
  const std::string dir = fresh_dir("serve_threads");
  std::filesystem::create_directories(dir);
  const std::pair<std::vector<std::string>, std::size_t> runs[] = {
      {{"--port=0", "--shards=2"}, 2},
      {{"--port=0", "--shards=2", "--journal-dir=" + dir}, 4},
  };
  for (const auto& [flags, threads] : runs) {
    ServeChild serve(flags);
    ASSERT_NE(serve.port, 0);
    EXPECT_EQ(task_count(serve.pid), threads + kRuntimeThreads)
        << flags.back();
    EXPECT_EQ(net::Client("127.0.0.1", serve.port).drain().status,
              net::Status::kOk);
    EXPECT_TRUE(serve.exits_cleanly());
  }
  std::filesystem::remove_all(dir);
}

TEST_F(HarnessCli, ServeRefusesTheEventLoopsFlag) {
  // Bounded, so a serve that took the flag fails here instead of serving.
  for (const char* loops : {"1", "2"}) {
    const Captured serve = capture(
        std::string("serve --port=0 --event-loops=") + loops, "timeout 10");
    EXPECT_EQ(serve.exit_code, 2) << serve.text;
    EXPECT_NE(serve.text.find("--event-loops"), std::string::npos)
        << serve.text;
  }
}

TEST_F(HarnessCli, LoadgenReplaysATraceInItsOrderByDefault) {
  // One connection by default: the drained cost is the trace's own, as
  // `harness trace run` reports it.
  ServeChild serve({"--port=0", "--shards=1"});
  ASSERT_NE(serve.port, 0);
  const Captured out =
      capture("loadgen --port=" + std::to_string(serve.port) + " --trace=" +
              DVBP_SAMPLE_TRC + " --drain");
  if (out.exit_code != 0) {
    // Drain the server anyway, so this test fails instead of hanging.
    try {
      net::Client("127.0.0.1", serve.port).drain();
    } catch (const std::exception&) {
    }
  }
  EXPECT_EQ(out.exit_code, 0) << out.text;
  EXPECT_NE(out.text.find(" bins=113 cost=963906.8"), std::string::npos)
      << out.text;
  EXPECT_TRUE(serve.exits_cleanly());
}

TEST_F(HarnessCli, LoadgenRejectsFlagsItsModeDoesNotRead) {
  // Refused before connecting: nothing listens on port 1.
  const std::string trace = std::string(" --trace=") + DVBP_SAMPLE_TRC;
  // {flags, the flag the message must name}
  const std::pair<std::string, std::string> rejected[] = {
      {"--rate=100 --window=4", "--window"},
      {"--rate=100 --requests=5", "--requests"},
      {"--duration=1", "--duration"},
      {trace + " --rate=100 --duration=1", "--duration"},
      {trace + " --requests=5", "--requests"},
      {trace + " --dim=3", "--dim"},
      {trace + " --depart-fraction=0.5", "--depart-fraction"},
      {trace + " --seed=3", "--seed"},
  };
  for (const auto& [flags, named] : rejected) {
    const Captured out = capture("loadgen --port=1 " + flags);
    EXPECT_EQ(out.exit_code, 2) << flags;
    EXPECT_NE(out.text.find(named), std::string::npos) << flags;
  }
}

TEST_F(HarnessCli, UnwritableOutputPathsFailFastWithExitCode2) {
  // A typo'd output path must be caught before any simulation runs, with
  // the dedicated usage-error exit code (2) rather than the generic 1.
  // A regular file used as a directory component is unwritable for every
  // uid (unlike permission-based setups, which root walks through).
  const std::string blocker = ::testing::TempDir() + "obs_cli_blocker";
  { std::ofstream(blocker) << "x"; }
  for (const std::string& flags :
       {"--quiet --metrics-out=" + blocker + "/m.json",
        "--quiet --trace-out=" + blocker + "/t.jsonl",
        "--quiet --journal-dir=" + blocker + "/x/wal"}) {
    const int rc = run(flags + " 2>/dev/null");
    ASSERT_TRUE(WIFEXITED(rc)) << flags;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << flags;
  }
  std::remove(blocker.c_str());
}

}  // namespace
}  // namespace dvbp::obs

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) dvbp::obs::g_harness_bin = argv[1];
  return RUN_ALL_TESTS();
}

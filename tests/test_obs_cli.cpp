// End-to-end test of the `harness` CLI telemetry flags: runs the real
// binary (path passed as argv[1] by CTest) with --metrics-out/--trace-out,
// then consumes both artifacts -- the metrics snapshot must be valid JSON
// with the expected allocator counters, and the JSONL trace must replay
// into a structurally complete Packing.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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
  std::remove(csv.c_str());
}

TEST_F(HarnessCli, FailsCleanlyOnBadInput) {
  EXPECT_NE(run("--policy=NoSuchPolicy --quiet"), 0);
  EXPECT_NE(run("--quiet --check-roundtrip"), 0);  // needs --trace-out
}

TEST_F(HarnessCli, UnwritableOutputPathsFailFastWithExitCode2) {
  // A typo'd output path must be caught before any simulation runs, with
  // the dedicated usage-error exit code (2) rather than the generic 1.
  // A regular file used as a directory component is unwritable for every
  // uid (unlike permission-based setups, which root walks through).
  const std::string blocker = ::testing::TempDir() + "obs_cli_blocker";
  { std::ofstream(blocker) << "x"; }
  for (const std::string flags :
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

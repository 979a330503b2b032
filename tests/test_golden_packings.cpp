// Golden-packing differential suite: pins the engine's exact packing
// decisions against hashes recorded from the engine before the O(1)
// bin-indexing refactor (PR "constant-time bin indexing"). Any change to
// placement semantics -- bin chosen, opening order, open/close times --
// changes a hash and fails here.
//
// Coverage: all 10 registered policies x (uniform d in {1,2,5} plus the
// high-dimension set {7,8,9,16} straddling RVec's inline/heap boundary at
// kInlineDim = 8, + the four adversarial constructions), fixed seeds.
// Each case is additionally replayed through the streaming Dispatcher and
// must match the batch engine bin-for-bin. The no-SIMD CI job re-runs
// this suite with -DDVBP_DISABLE_SIMD=ON and must produce identical
// hashes (scalar/SIMD bit-exactness contract, core/open_bin_table.hpp).
//
// Regenerating goldens (only legitimate after an *intentional* semantic
// change): DVBP_DUMP_GOLDEN=1 ./test_golden_packings | grep '^    {' then
// paste into golden_packings.inc.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/packing.hpp"
#include "core/policies/registry.hpp"
#include "core/simulator.hpp"
#include "gen/adversarial.hpp"
#include "gen/uniform.hpp"
#include "packing_hash.hpp"

namespace dvbp {
namespace {

constexpr std::uint64_t kPolicySeed = 0xD1CEu;

const char* const kPolicies[] = {
    "MoveToFront", "FirstFit",        "BestFit",     "NextFit",
    "LastFit",     "RandomFit",       "WorstFit",    "MinExtensionFit",
    "HarmonicFit", "DurationClassFit"};

std::vector<std::pair<std::string, Instance>> golden_workloads() {
  std::vector<std::pair<std::string, Instance>> out;
  // 7/8/9 bracket RVec's kInlineDim = 8 (last all-inline, boundary, first
  // heap-backed); 16 exercises the pure-heap path and full SIMD lanes.
  for (std::size_t d : {1u, 2u, 5u, 7u, 8u, 9u, 16u}) {
    gen::UniformParams params;
    params.d = d;
    params.n = 400;
    params.mu = 12;
    params.span = 100;
    params.bin_size = 9;
    out.emplace_back("uniform_d" + std::to_string(d),
                     gen::uniform_instance(params, 0xA11CE + d));
  }
  out.emplace_back("adv_anyfit",
                   gen::anyfit_lower_bound(/*k=*/6, /*d=*/2, /*mu=*/5.0)
                       .instance);
  out.emplace_back("adv_nextfit",
                   gen::nextfit_lower_bound(/*k=*/6, /*d=*/2, /*mu=*/4.0)
                       .instance);
  out.emplace_back("adv_mtf", gen::mtf_lower_bound(/*n=*/8, /*mu=*/6.0)
                                  .instance);
  out.emplace_back("adv_bestfit", gen::bestfit_unbounded(/*k=*/10).instance);
  return out;
}

// fnv / packing_hash moved to packing_hash.hpp (shared with the
// crash-recovery parity suite).

struct GoldenEntry {
  const char* workload;
  const char* policy;
  std::uint64_t hash;
};

const GoldenEntry kGolden[] = {
#include "golden_packings.inc"
};

std::uint64_t expected_hash(const std::string& workload,
                            const std::string& policy) {
  for (const GoldenEntry& e : kGolden) {
    if (workload == e.workload && policy == e.policy) return e.hash;
  }
  ADD_FAILURE() << "no golden entry for " << workload << "/" << policy;
  return 0;
}

TEST(GoldenPackings, EngineMatchesPreRefactorGoldens) {
  const bool dump = std::getenv("DVBP_DUMP_GOLDEN") != nullptr;
  for (const auto& [name, inst] : golden_workloads()) {
    for (const char* policy_name : kPolicies) {
      PolicyPtr policy = make_policy(policy_name, kPolicySeed);
      const SimResult sim = simulate(inst, *policy, {.audit = true});
      const std::uint64_t h = packing_hash(sim.packing);
      if (dump) {
        printf("    {\"%s\", \"%s\", 0x%016llXull},\n", name.c_str(),
               policy_name, static_cast<unsigned long long>(h));
        continue;
      }
      EXPECT_EQ(h, expected_hash(name, policy_name))
          << name << "/" << policy_name
          << ": packing diverged from the pre-refactor engine";
    }
  }
  if (dump) GTEST_SKIP() << "golden dump mode; comparisons skipped";
}

TEST(GoldenPackings, DispatcherReplayMatchesEngineBinForBin) {
  for (const auto& [name, inst] : golden_workloads()) {
    const auto events = build_event_stream(inst);
    for (const char* policy_name : kPolicies) {
      PolicyPtr batch_policy = make_policy(policy_name, kPolicySeed);
      const SimResult sim = simulate(inst, *batch_policy);

      PolicyPtr live_policy = make_policy(policy_name, kPolicySeed);
      Dispatcher dispatcher(inst.dim(), *live_policy);
      PackingRecorder recorder;
      dispatcher.set_recorder(&recorder);
      for (const Event& ev : events) {
        const Item& item = inst[ev.item];
        if (ev.kind == EventKind::kArrival) {
          const auto admission =
              dispatcher.arrive(item.arrival, item.size, item.departure);
          ASSERT_EQ(admission.bin, sim.packing.bin_of(item.id))
              << name << "/" << policy_name << " item " << item.id;
        } else {
          dispatcher.depart(ev.time, item.id);
        }
      }
      ASSERT_EQ(recorder.num_bins(), sim.packing.num_bins())
          << name << "/" << policy_name;
      const std::vector<BinRecord> records = recorder.bin_records();
      for (std::size_t b = 0; b < sim.packing.num_bins(); ++b) {
        const BinRecord& live = records[b];
        const BinRecord& batch = sim.packing.bins()[b];
        EXPECT_EQ(live.id, batch.id) << name << "/" << policy_name;
        EXPECT_DOUBLE_EQ(live.opened, batch.opened)
            << name << "/" << policy_name << " bin " << b;
        EXPECT_DOUBLE_EQ(live.closed, batch.closed)
            << name << "/" << policy_name << " bin " << b;
        EXPECT_EQ(live.items, batch.items)
            << name << "/" << policy_name << " bin " << b;
      }
      EXPECT_EQ(dispatcher.open_bins(), 0u) << name << "/" << policy_name;
    }
  }
}

}  // namespace
}  // namespace dvbp

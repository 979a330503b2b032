// Live dispatch: drives the streaming Dispatcher API the way an actual
// service would -- jobs arrive one at a time with *unknown* departures,
// each is placed immediately, and the running rental cost is metered.
// Runs Move To Front and Next Fit side by side on the identical stream so
// the cost gap is directly visible as it accumulates. The MTF dispatcher
// carries an obs::Observer, so the progress table doubles as a periodic
// telemetry snapshot (placement throughput, open bins, fit failures) --
// the live-service monitoring story of docs/OBSERVABILITY.md.
//
// The service stacks built on this API have their own front-ends:
// `harness --shards=K` runs the sharded service, `harness --journal-dir=DIR`
// (then `--recover`) journals and recovers, and `harness serve` with
// `harness loadgen` put the service behind the wire protocol.
//
//   $ ./example_live_dispatcher [--jobs=5000] [--seed=21]
#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/policies/registry.hpp"
#include "harness/cli.hpp"
#include "harness/table.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "stats/rng.hpp"

namespace {

using namespace dvbp;

struct PendingDeparture {
  Time when;
  JobId mtf_job;
  JobId nf_job;
  bool operator>(const PendingDeparture& other) const {
    return when > other.when;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const harness::Args args(argc, argv);
  const auto jobs = static_cast<std::size_t>(args.get_int("jobs", 5000));
  Xoshiro256pp rng(static_cast<std::uint64_t>(args.get_int("seed", 21)));

  PolicyPtr mtf = make_policy("MoveToFront");
  PolicyPtr nf = make_policy("NextFit");
  dvbp::obs::MetricRegistry registry;
  dvbp::obs::Observer observer(&registry);
  Dispatcher mtf_dispatcher(2, *mtf, 1.0, &observer);
  Dispatcher nf_dispatcher(2, *nf);

  const dvbp::obs::Counter& placements =
      registry.counter("dvbp.alloc.placements_total");
  const dvbp::obs::Counter& fit_failures =
      registry.counter("dvbp.alloc.fit_failures_total");
  const dvbp::obs::Gauge& open_bins = registry.gauge("dvbp.alloc.open_bins");

  std::priority_queue<PendingDeparture, std::vector<PendingDeparture>,
                      std::greater<>>
      departures;

  std::cout << "=== Live dispatch of " << jobs
            << " jobs (departures unknown at placement) ===\n\n";
  harness::Table progress({"t", "active", "MTF open", "NF open", "MTF cost",
                           "NF cost", "plc/s", "fit-fail"});

  Time now = 0.0;
  const std::size_t report_every = jobs / 8 + 1;
  auto last_wall = std::chrono::steady_clock::now();
  std::uint64_t last_placements = 0;
  for (std::size_t j = 0; j < jobs; ++j) {
    now += rng.uniform(0.0, 0.5);  // inter-arrival gap
    // Drain departures due before this arrival -- the service only learns
    // a job is over when it actually ends.
    while (!departures.empty() && departures.top().when <= now) {
      const auto dep = departures.top();
      departures.pop();
      mtf_dispatcher.depart(dep.when, dep.mtf_job);
      nf_dispatcher.depart(dep.when, dep.nf_job);
    }
    const RVec size{0.05 + 0.45 * rng.uniform(), 0.05 + 0.45 * rng.uniform()};
    const Time duration = 1.0 + 30.0 * rng.uniform() * rng.uniform();
    const auto a = mtf_dispatcher.arrive(now, size);
    const auto b = nf_dispatcher.arrive(now, size);
    departures.push({now + duration, a.job, b.job});

    if (j % report_every == 0) {
      // Periodic telemetry snapshot from the registry: placement
      // throughput (wall clock), live open-bin gauge, fit failures.
      const auto wall = std::chrono::steady_clock::now();
      const double secs =
          std::chrono::duration<double>(wall - last_wall).count();
      const std::uint64_t placed = placements.value();
      const double rate =
          secs > 0.0 ? static_cast<double>(placed - last_placements) / secs
                     : 0.0;
      last_wall = wall;
      last_placements = placed;
      progress.add_row({harness::Table::num(now, 1),
                        std::to_string(mtf_dispatcher.jobs_active()),
                        harness::Table::num(open_bins.value(), 0),
                        std::to_string(nf_dispatcher.open_bins()),
                        harness::Table::num(
                            mtf_dispatcher.cost_so_far(now), 0),
                        harness::Table::num(nf_dispatcher.cost_so_far(now),
                                            0),
                        harness::Table::num(rate, 0),
                        std::to_string(fit_failures.value())});
    }
  }
  while (!departures.empty()) {
    const auto dep = departures.top();
    departures.pop();
    now = std::max(now, dep.when);
    mtf_dispatcher.depart(dep.when, dep.mtf_job);
    nf_dispatcher.depart(dep.when, dep.nf_job);
  }

  std::cout << progress.to_aligned_text() << '\n';
  const double mtf_cost = mtf_dispatcher.cost_so_far(now);
  const double nf_cost = nf_dispatcher.cost_so_far(now);
  std::cout << "Final: MoveToFront cost="
            << harness::Table::num(mtf_cost, 0) << " ("
            << mtf_dispatcher.bins_opened() << " servers), NextFit cost="
            << harness::Table::num(nf_cost, 0) << " ("
            << nf_dispatcher.bins_opened() << " servers) -> MTF saves "
            << harness::Table::num(100.0 * (nf_cost - mtf_cost) / nf_cost, 1)
            << "%\n";
  std::cout << "\nMTF telemetry (dvbp.alloc.*): placements="
            << placements.value() << ", fit_failures=" << fit_failures.value()
            << ", bins_opened="
            << registry.counter("dvbp.alloc.bins_opened_total").value()
            << ", decision p99="
            << harness::Table::num(
                   registry.histogram("dvbp.alloc.decision_latency_ns")
                       .quantile(0.99),
                   0)
            << "ns\n";
  return 0;
}

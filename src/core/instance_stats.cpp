#include "core/instance_stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/event.hpp"

namespace dvbp {

InstanceStats analyze(const Instance& inst) {
  InstanceStats stats;
  stats.dim = inst.dim();
  stats.n = inst.size();
  if (inst.empty()) return stats;

  stats.span = inst.span();
  stats.mu = inst.mu();
  stats.min_duration = inst.min_duration();
  stats.max_duration = inst.max_duration();
  double total_duration = 0.0;
  stats.mean_size.assign(inst.dim(), 0.0);
  stats.max_size.assign(inst.dim(), 0.0);
  for (const Item& r : inst.items()) {
    total_duration += r.duration();
    for (std::size_t j = 0; j < inst.dim(); ++j) {
      stats.mean_size[j] += r.size[j];
      stats.max_size[j] = std::max(stats.max_size[j], r.size[j]);
    }
  }
  stats.mean_duration = total_duration / static_cast<double>(inst.size());
  for (double& m : stats.mean_size) m /= static_cast<double>(inst.size());

  // Concurrency / height profile and the Lemma 1 bounds, one event sweep.
  double height_integral = 0.0;
  double concurrency_integral = 0.0;
  const auto events = build_event_stream(inst);
  HeightSweep sweep(inst.dim(), events.front().time);
  for (const Event& ev : events) {
    const Time dt = sweep.advance(ev.time);
    height_integral += sweep.load().linf() * dt;
    concurrency_integral += static_cast<double>(sweep.active()) * dt;
    if (ev.kind == EventKind::kArrival) {
      sweep.arrive(inst[ev.item].size);
      stats.peak_concurrency = std::max(stats.peak_concurrency, sweep.active());
      stats.peak_height = std::max(stats.peak_height, sweep.load().linf());
    } else {
      sweep.depart(inst[ev.item].size);
    }
  }
  stats.height_bound = sweep.bound();
  stats.mean_height = height_integral / stats.span;
  stats.mean_concurrency = concurrency_integral / stats.span;
  stats.utilization_bound =
      inst.total_utilization() / static_cast<double>(inst.dim());
  return stats;
}

std::string InstanceStats::report() const {
  std::ostringstream os;
  os << "items: " << n << "  dim: " << dim << "  span: " << span << '\n';
  os << "durations: min " << min_duration << ", mean " << mean_duration
     << ", max " << max_duration << "  (mu = " << mu << ")\n";
  os << "concurrency: mean " << mean_concurrency << ", peak "
     << peak_concurrency << '\n';
  os << "load height ||s(R,t)||_inf: mean " << mean_height << ", peak "
     << peak_height << '\n';
  os << "per-dimension size mean/max:";
  for (std::size_t j = 0; j < mean_size.size(); ++j) {
    os << "  [" << j << "] " << mean_size[j] << '/' << max_size[j];
  }
  os << '\n';
  os << "OPT floor (Lemma 1): height " << height_bound << ", utilization "
     << utilization_bound << '\n';
  return os.str();
}

}  // namespace dvbp

#include "opt/lower_bounds.hpp"

#include <algorithm>
#include <cmath>

#include "core/event.hpp"
#include "core/instance_stats.hpp"

namespace dvbp {

double lb_height(const Instance& inst) {
  if (inst.empty()) return 0.0;
  const std::vector<Event> events = build_event_stream(inst);
  HeightSweep sweep(inst.dim(), events.front().time);
  for (const Event& ev : events) {
    sweep.advance(ev.time);
    if (ev.kind == EventKind::kArrival) {
      sweep.arrive(inst[ev.item].size);
    } else {
      sweep.depart(inst[ev.item].size);
    }
  }
  return sweep.bound();
}

double lb_utilization(const Instance& inst) {
  if (inst.empty()) return 0.0;
  return inst.total_utilization() / static_cast<double>(inst.dim());
}

double lb_span(const Instance& inst) { return inst.span(); }

double LowerBounds::best() const noexcept {
  return std::max({height, utilization, span});
}

LowerBounds lower_bounds(const Instance& inst) {
  return LowerBounds{lb_height(inst), lb_utilization(inst), lb_span(inst)};
}

}  // namespace dvbp

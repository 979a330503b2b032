#include "trace/replay.hpp"

#include <algorithm>

#include "core/dispatcher.hpp"
#include "obs/metrics.hpp"

namespace dvbp::trace {

ReplayResult replay_trace(const TraceReader& reader, Policy& policy,
                          const ReplayOptions& options) {
  Dispatcher dispatcher(reader.dim(), policy, options.bin_capacity,
                        options.observer);
  PackingRecorder recorder(reader.size());
  dispatcher.set_recorder(&recorder);

  obs::Counter* events_total = nullptr;
  obs::Counter* arrivals_total = nullptr;
  obs::Counter* departures_total = nullptr;
  obs::Counter* bins_opened_total = nullptr;
  obs::Gauge* open_bins = nullptr;
  obs::Gauge* replay_cost = nullptr;
  if (options.metrics != nullptr) {
    obs::MetricRegistry& m = *options.metrics;
    events_total = &m.counter("dvbp.trace.events_total");
    arrivals_total = &m.counter("dvbp.trace.arrivals_total");
    departures_total = &m.counter("dvbp.trace.departures_total");
    bins_opened_total = &m.counter("dvbp.trace.bins_opened_total");
    open_bins = &m.gauge("dvbp.trace.open_bins");
    replay_cost = &m.gauge("dvbp.trace.replay_cost");
  }

  ReplayResult result;
  // A job is named by its row, the ItemId materialize() would give it.
  TraceCursor cursor(reader);
  TraceEvent ev;
  Item item;
  item.size = RVec(reader.dim());
  while (cursor.next(ev)) {
    if (ev.kind == EventKind::kArrival) {
      item.id = ev.item;
      item.arrival = ev.time;
      item.departure = reader.departure(ev.item);
      item.tenant = reader.tenant(ev.item);
      reader.size_into(ev.item, item.size);
      const Dispatcher::Admission adm = dispatcher.arrive(ev.time, item);
      ++result.items;
      if (arrivals_total != nullptr) arrivals_total->inc();
      if (bins_opened_total != nullptr && adm.opened_new_bin) {
        bins_opened_total->inc();
      }
    } else {
      dispatcher.depart(ev.time, ev.item);
      if (departures_total != nullptr) departures_total->inc();
    }
    ++result.events;
    if (events_total != nullptr) events_total->inc();
    if (open_bins != nullptr) {
      open_bins->set(static_cast<double>(dispatcher.open_bins()));
    }
    result.max_open_bins =
        std::max(result.max_open_bins, dispatcher.open_bins());
  }

  result.bins_opened = dispatcher.bins_opened();
  // Every trace item departs, so all bins are closed by now: the recorder
  // sums their usage in bin-id order -- the exact arithmetic of
  // Packing::cost() -- rather than cost_so_far()'s close-order running
  // sum, whose different addition order can drift by an ULP on
  // large-magnitude workloads.
  result.cost = recorder.cost();
  if (replay_cost != nullptr) replay_cost->set(result.cost);
  if (options.packing_out != nullptr) {
    *options.packing_out = std::move(recorder).packing();
  }
  return result;
}

}  // namespace dvbp::trace

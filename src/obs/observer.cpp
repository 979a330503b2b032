#include "obs/observer.hpp"

namespace dvbp::obs {

Observer::Observer(MetricRegistry* metrics, Tracer* tracer)
    : metrics_(metrics), tracer_(tracer) {
  if (metrics_ == nullptr) return;
  arrivals_ = &metrics_->counter("dvbp.alloc.arrivals_total");
  departures_ = &metrics_->counter("dvbp.alloc.departures_total");
  placements_ = &metrics_->counter("dvbp.alloc.placements_total");
  fit_failures_ = &metrics_->counter("dvbp.alloc.fit_failures_total");
  bins_opened_ = &metrics_->counter("dvbp.alloc.bins_opened_total");
  bins_closed_ = &metrics_->counter("dvbp.alloc.bins_closed_total");
  open_bins_ = &metrics_->gauge("dvbp.alloc.open_bins");
  active_items_ = &metrics_->gauge("dvbp.alloc.active_items");
  evictions_ = &metrics_->counter("dvbp.migrate.evictions_total");
  migrations_ = &metrics_->counter("dvbp.migrate.migrations_total");
  migration_closes_ =
      &metrics_->counter("dvbp.migrate.bins_closed_total");
  decision_latency_ =
      &metrics_->histogram("dvbp.alloc.decision_latency_ns");
}

void Observer::on_arrival(Time t, ItemId item, std::span<const double> size,
                          std::size_t open_bins) {
  if (arrivals_ != nullptr) {
    arrivals_->inc();
    active_items_->add(1.0);
  }
  if (tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kArrival;
    ev.time = t;
    ev.item = item;
    ev.size = size;
    ev.open_bins = open_bins;
    tracer_->emit(ev);
  }
}

void Observer::on_reject(Time t, ItemId item, BinId bin) {
  if (tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kReject;
    ev.time = t;
    ev.item = item;
    ev.bin = bin;
    tracer_->emit(ev);
  }
}

void Observer::on_place(Time t, ItemId item, BinId bin, bool new_bin,
                        std::size_t rejections) {
  if (placements_ != nullptr) {
    placements_->inc();
    fit_failures_->inc(rejections);
  }
  if (tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kPlace;
    ev.time = t;
    ev.item = item;
    ev.bin = bin;
    ev.new_bin = new_bin;
    ev.rejections = rejections;
    tracer_->emit(ev);
  }
}

void Observer::on_open(Time t, BinId bin) {
  if (bins_opened_ != nullptr) {
    bins_opened_->inc();
    open_bins_->add(1.0);
  }
  if (tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kOpen;
    ev.time = t;
    ev.bin = bin;
    tracer_->emit(ev);
  }
}

void Observer::on_depart(Time t, ItemId item, BinId bin, bool emptied) {
  if (departures_ != nullptr) {
    departures_->inc();
    active_items_->add(-1.0);
  }
  if (tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kDepart;
    ev.time = t;
    ev.item = item;
    ev.bin = bin;
    ev.emptied = emptied;
    tracer_->emit(ev);
  }
}

void Observer::on_close(Time t, BinId bin, Time opened) {
  if (bins_closed_ != nullptr) {
    bins_closed_->inc();
    open_bins_->add(-1.0);
  }
  if (tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kClose;
    ev.time = t;
    ev.bin = bin;
    ev.opened = opened;
    tracer_->emit(ev);
  }
}

void Observer::on_evict(Time t, ItemId item, BinId bin, bool emptied) {
  if (evictions_ != nullptr) {
    evictions_->inc();
    if (emptied) migration_closes_->inc();
  }
  if (tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kEvict;
    ev.time = t;
    ev.item = item;
    ev.bin = bin;
    ev.emptied = emptied;
    tracer_->emit(ev);
  }
}

void Observer::on_replace(Time t, ItemId item, BinId bin, bool new_bin) {
  if (migrations_ != nullptr) migrations_->inc();
  if (tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kReplace;
    ev.time = t;
    ev.item = item;
    ev.bin = bin;
    ev.new_bin = new_bin;
    tracer_->emit(ev);
  }
}

}  // namespace dvbp::obs

// Observer: the instrumentation hook the placement engine calls.
//
// Binds an optional MetricRegistry and an optional Tracer and translates
// raw engine callbacks into metric updates and trace records. The engine,
// Dispatcher, holds a nullable Observer*; simulate(), trace replay,
// cloud::run_cluster and the services hand theirs to it. Item ids in the
// callbacks are each job's one name, its Item::id: the instance's ItemId
// under simulate() and every serial harness stack, the global JobId in a
// shard. A null pointer
// costs one predictable branch per event, and an Observer
// whose tracer is inactive skips all record formatting, so the hot path is
// unharmed when observability is off (guarded by bench_micro's
// BM_SimulateObserved suite).
//
// Metric names follow docs/OBSERVABILITY.md; all counters/gauges are
// resolved once at construction so per-event updates never touch the
// registry map.
#pragma once

#include <cstddef>
#include <span>

#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dvbp::obs {

class Observer {
 public:
  /// Both pointers are borrowed and may be null; they must outlive the
  /// observer. Metric instruments are registered eagerly here.
  explicit Observer(MetricRegistry* metrics, Tracer* tracer = nullptr);

  MetricRegistry* metrics() const noexcept { return metrics_; }
  Tracer* tracer() const noexcept { return tracer_; }

  bool tracing() const noexcept {
    return tracer_ != nullptr && tracer_->active();
  }

  /// Sink for per-decision policy latency; null when metrics are off (so
  /// ScopedTimer skips the clock reads).
  Histogram* decision_latency() const noexcept { return decision_latency_; }

  // --- Engine callbacks (see docs/OBSERVABILITY.md for semantics) -------
  void on_arrival(Time t, ItemId item, std::span<const double> size,
                  std::size_t open_bins);
  /// A reject record for one open bin that cannot hold the item; engines
  /// call it only while tracing().
  void on_reject(Time t, ItemId item, BinId bin);
  /// `rejections` open bins could not hold the item: engines count them
  /// while metrics() or tracing() is set, and pass 0 otherwise.
  void on_place(Time t, ItemId item, BinId bin, bool new_bin,
                std::size_t rejections);
  void on_open(Time t, BinId bin);
  void on_depart(Time t, ItemId item, BinId bin, bool emptied);
  void on_close(Time t, BinId bin, Time opened);
  // Migration callbacks (dvbp.migrate.* metrics; docs/MIGRATION.md).
  void on_evict(Time t, ItemId item, BinId bin, bool emptied);
  void on_replace(Time t, ItemId item, BinId bin, bool new_bin);

 private:
  MetricRegistry* metrics_;
  Tracer* tracer_;

  // Cached instruments (null when metrics_ is null).
  Counter* arrivals_ = nullptr;
  Counter* departures_ = nullptr;
  Counter* placements_ = nullptr;
  Counter* fit_failures_ = nullptr;
  Counter* bins_opened_ = nullptr;
  Counter* bins_closed_ = nullptr;
  Gauge* open_bins_ = nullptr;
  Gauge* active_items_ = nullptr;
  Counter* evictions_ = nullptr;
  Counter* migrations_ = nullptr;
  Counter* migration_closes_ = nullptr;
  Histogram* decision_latency_ = nullptr;
};

}  // namespace dvbp::obs

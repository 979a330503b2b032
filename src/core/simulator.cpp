#include "core/simulator.hpp"

#include <algorithm>

#include "core/dispatcher.hpp"
#include "core/policies/registry.hpp"
#include "obs/observer.hpp"

namespace dvbp {

namespace {

void check_options(const Instance& inst, const SimOptions& opts) {
  if (auto err = inst.validate()) {
    throw std::invalid_argument("simulate: invalid instance: " + *err);
  }
  if (opts.audit && opts.bin_capacity != 1.0) {
    throw std::invalid_argument(
        "simulate: audit assumes unit bins; disable it under augmentation");
  }
}

SimResult run(const Instance& inst, std::span<const Event> events,
              Policy& policy, const SimOptions& opts) {
  // An empty instance has not fixed its dimension; any event then throws.
  Dispatcher dispatcher(std::max<std::size_t>(inst.dim(), 1), policy,
                        opts.bin_capacity, opts.observer);
  PackingRecorder recorder(inst.size());
  dispatcher.set_recorder(&recorder);
  SimResult result;
  for (const Event& ev : events) {
    if (ev.item >= inst.size()) {
      throw std::invalid_argument(
          "simulate: event references item " + std::to_string(ev.item) +
          " outside the instance");
    }
    if (ev.kind == EventKind::kArrival) {
      dispatcher.arrive(ev.time, inst[ev.item]);
      result.max_open_bins =
          std::max(result.max_open_bins, dispatcher.open_bins());
    } else {
      // A departure before the arrival, or a second one, throws
      // std::invalid_argument: the job is not live.
      dispatcher.depart(ev.time, ev.item);
    }
    if (opts.record_timeline) {
      auto& timeline = result.timeline;
      if (!timeline.empty() && timeline.back().first == ev.time) {
        timeline.back().second = dispatcher.open_bins();
      } else {
        timeline.emplace_back(ev.time, dispatcher.open_bins());
      }
    }
  }
  if (dispatcher.open_bins() != 0) {
    // Open bins never receive a close time: the cost would be understated.
    throw std::logic_error(
        "simulate: " + std::to_string(dispatcher.open_bins()) +
        " bin(s) still open after the event stream drained; the stream "
        "is truncated or missing departures");
  }
  if (opts.observer != nullptr && opts.observer->tracer() != nullptr) {
    opts.observer->tracer()->flush();
  }

  result.bins_opened = dispatcher.bins_opened();
  result.packing = std::move(recorder).packing();
  result.cost = result.packing.cost();
  if (opts.audit) {
    if (auto err = result.packing.validate(inst)) {
      throw std::logic_error("simulate: packing audit failed: " + *err);
    }
  }
  return result;
}

}  // namespace

SimResult simulate(const Instance& inst, Policy& policy, SimOptions opts) {
  check_options(inst, opts);
  return run(inst, build_event_stream(inst), policy, opts);
}

SimResult simulate_events(const Instance& inst, std::span<const Event> events,
                          Policy& policy, SimOptions opts) {
  check_options(inst, opts);
  return run(inst, events, policy, opts);
}

SimResult simulate(const Instance& inst, std::string_view policy_name,
                   SimOptions opts, std::uint64_t policy_seed) {
  PolicyPtr policy = make_policy(policy_name, policy_seed);
  return simulate(inst, *policy, opts);
}

}  // namespace dvbp

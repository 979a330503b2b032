// Error paths that must survive NDEBUG builds. These guards used to be
// assert()-only, which meant a Release build would erase end() iterators
// or return understated costs instead of failing; they are now real
// checks with typed exceptions, and this suite runs in both the Debug and
// the Release CI jobs (the latter with asserts compiled out).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/bin_state.hpp"
#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/policies/registry.hpp"
#include "core/simulator.hpp"

namespace dvbp {
namespace {

TEST(ReleaseGuards, BinStateRemoveUnknownItemThrows) {
  const Item present(0, 0.0, 2.0, RVec{0.4});
  const Item absent(1, 0.0, 3.0, RVec{0.3});
  UsagePool pool;
  BinState bin(0, 0.0, &pool);
  bin.add(present);
  EXPECT_THROW(bin.remove(absent), std::logic_error);
  // The failed removal must not have corrupted the item list.
  EXPECT_EQ(bin.active_items(), std::vector<ItemId>{0});
  EXPECT_EQ(bin.num_active(), 1u);
}

TEST(ReleaseGuards, BinStateRemoveTwiceThrows) {
  const Item item(0, 0.0, 2.0, RVec{0.4});
  const Item other(1, 0.0, 3.0, RVec{0.3});
  UsagePool pool;
  BinState bin(0, 0.0, &pool);
  bin.add(item);
  bin.add(other);
  EXPECT_FALSE(bin.remove(item));
  EXPECT_THROW(bin.remove(item), std::logic_error);
}

TEST(ReleaseGuards, DispatcherDepartUnknownJobThrows) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy);
  dispatcher.arrive(0.0, RVec{0.5}, 10.0);
  EXPECT_THROW(dispatcher.depart(1.0, 42), std::invalid_argument);
}

TEST(ReleaseGuards, DispatcherDepartTwiceThrows) {
  PolicyPtr policy = make_policy("FirstFit");
  Dispatcher dispatcher(1, *policy);
  const auto admission = dispatcher.arrive(0.0, RVec{0.5}, 10.0);
  dispatcher.depart(1.0, admission.job);
  EXPECT_THROW(dispatcher.depart(2.0, admission.job),
               std::invalid_argument);
}

TEST(ReleaseGuards, TruncatedEventStreamThrows) {
  // Dropping trailing departures leaves bins open when the stream drains;
  // silently accepting that would understate the packing's cost.
  Instance inst(1);
  inst.add(0.0, 4.0, RVec{0.6});
  inst.add(1.0, 5.0, RVec{0.6});
  std::vector<Event> events = build_event_stream(inst);
  ASSERT_EQ(events.size(), 4u);
  events.resize(2);  // both arrivals only
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate_events(inst, events, *policy), std::logic_error);
}

TEST(ReleaseGuards, DepartureBeforeArrivalThrows) {
  Instance inst(1);
  inst.add(0.0, 4.0, RVec{0.6});
  std::vector<Event> events = build_event_stream(inst);
  std::swap(events[0], events[1]);  // departure first
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate_events(inst, events, *policy), std::logic_error);
}

TEST(ReleaseGuards, DuplicateDepartureThrows) {
  Instance inst(1);
  inst.add(0.0, 4.0, RVec{0.6});
  inst.add(1.0, 5.0, RVec{0.2});
  std::vector<Event> events = build_event_stream(inst);
  // Duplicate item 0's departure; its bin already closed the first time.
  for (const Event& ev : build_event_stream(inst)) {
    if (ev.kind == EventKind::kDeparture && ev.item == 0) {
      events.push_back(ev);
    }
  }
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate_events(inst, events, *policy), std::logic_error);
}

TEST(ReleaseGuards, BackwardsClockThrows) {
  // Item 1's departure is replayed at t=2, before item 0's at t=4: taken
  // at face value, bin 1 would close at 2 and the cost come out 5, not 8.
  Instance inst(1);
  inst.add(0.0, 4.0, RVec{0.6});
  inst.add(1.0, 5.0, RVec{0.6});
  const std::vector<Event> events = {{0.0, EventKind::kArrival, 0},
                                     {1.0, EventKind::kArrival, 1},
                                     {4.0, EventKind::kDeparture, 0},
                                     {2.0, EventKind::kDeparture, 1}};
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate_events(inst, events, *policy), std::logic_error);
}

TEST(ReleaseGuards, EventBeyondInstanceThrows) {
  Instance inst(1);
  inst.add(0.0, 4.0, RVec{0.6});
  std::vector<Event> events = build_event_stream(inst);
  events.push_back(Event{5.0, EventKind::kArrival, 7});
  PolicyPtr policy = make_policy("FirstFit");
  EXPECT_THROW(simulate_events(inst, events, *policy),
               std::invalid_argument);
}

TEST(ReleaseGuards, CompleteEventStreamMatchesSimulate) {
  Instance inst(2);
  inst.add(0.0, 4.0, RVec{0.6, 0.1});
  inst.add(1.0, 5.0, RVec{0.6, 0.2});
  inst.add(2.0, 3.0, RVec{0.3, 0.3});
  const auto events = build_event_stream(inst);
  PolicyPtr a = make_policy("FirstFit");
  PolicyPtr b = make_policy("FirstFit");
  const SimResult via_events = simulate_events(inst, events, *a);
  const SimResult direct = simulate(inst, *b);
  EXPECT_EQ(via_events.packing.assignment(), direct.packing.assignment());
  EXPECT_DOUBLE_EQ(via_events.cost, direct.cost);
}

}  // namespace
}  // namespace dvbp

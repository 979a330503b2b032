// Memory follows the live state: a Dispatcher keeps only its live jobs and
// open bins, and history leaves through a PackingRecorder only when one is
// attached. This binary replaces the global allocation functions with a
// live-byte counter, so the footprint is measured from outside the engine
// with no accessor added for it.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/event.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "gen/uniform.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_allocations{0};

void* counted(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return p;
}

void* counted_or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return counted(p);
}

void* allocate(std::size_t n) noexcept { return std::malloc(n ? n : 1); }

void* allocate(std::size_t n, std::align_val_t align) noexcept {
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

void uncounted(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Every replaceable allocation function, so that no allocation or release
// escapes the counts (or pairs with a runtime's own version of the other).
void* operator new(std::size_t n) { return counted_or_throw(allocate(n)); }
void* operator new[](std::size_t n) { return counted_or_throw(allocate(n)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(allocate(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(allocate(n, a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(allocate(n));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(allocate(n));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted(allocate(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted(allocate(n, a));
}
void operator delete(void* p) noexcept { uncounted(p); }
void operator delete[](void* p) noexcept { uncounted(p); }
void operator delete(void* p, std::size_t) noexcept { uncounted(p); }
void operator delete[](void* p, std::size_t) noexcept { uncounted(p); }
void operator delete(void* p, std::align_val_t) noexcept { uncounted(p); }
void operator delete[](void* p, std::align_val_t) noexcept { uncounted(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  uncounted(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  uncounted(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  uncounted(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  uncounted(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  uncounted(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  uncounted(p);
}

namespace dvbp {
namespace {

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

std::int64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// One lap of replay_dense's density (d=5, mu=200, about 12 arrivals per
// time unit), so about a thousand bins are open at once, at an eighth of
// its length.
Instance lap_instance() {
  gen::UniformParams params;
  params.d = 5;
  params.n = 12000;
  params.mu = 200;
  params.span = 1008;
  params.bin_size = 100;
  return gen::uniform_instance(params, /*seed=*/7);
}

// MoveToFront and NextFit are left out: MoveToFront's per-bin pos_/stamp_
// tables and leader_history(), and NextFit's release_log(), are policy
// state that still grows with the bins a run opens.
TEST(LiveMemory, TenLapsRetainWhatOneLapDid) {
  const Instance inst = lap_instance();
  const std::vector<Event> events = build_event_stream(inst);
  const Time lap_length = static_cast<Time>(1008);
  std::vector<JobId> job_of(inst.size(), kNoItem);
  for (const char* name : {"FirstFit", "BestFit", "WorstFit", "LastFit"}) {
    SCOPED_TRACE(name);
    const PolicyPtr policy = make_policy(name, 1);
    Dispatcher dispatcher(inst.dim(), *policy);
    const std::int64_t base = live_bytes();
    std::int64_t after_first = 0;
    std::size_t peak_open = 0;
    for (int lap = 0; lap < 10; ++lap) {
      const Time offset = lap * lap_length;
      for (const Event& ev : events) {
        const Item& item = inst[ev.item];
        if (ev.kind == EventKind::kArrival) {
          job_of[ev.item] = dispatcher
                                .arrive(item.arrival + offset, item.size,
                                        item.departure + offset)
                                .job;
          peak_open = std::max(peak_open, dispatcher.open_bins());
        } else {
          dispatcher.depart(ev.time + offset, job_of[ev.item]);
        }
      }
      if (lap == 0) after_first = live_bytes() - base;
    }
    const std::int64_t after_last = live_bytes() - base;
    EXPECT_GE(peak_open, 700u) << "the stream is not dense enough";
    EXPECT_EQ(dispatcher.jobs_admitted(), 10 * inst.size());
    EXPECT_GT(after_first, 0);
    EXPECT_LE(static_cast<double>(after_last),
              1.25 * static_cast<double>(after_first))
        << "lap 1 left " << after_first << " bytes, lap 10 " << after_last;
  }
}

// A recorder is a passive listener: attaching one changes no decision and
// no live state, under every policy.
TEST(LiveMemory, ARecorderChangesNoDecision) {
  gen::UniformParams params;
  params.d = 2;
  params.n = 1500;
  params.mu = 20;
  params.span = 300;
  params.bin_size = 50;
  const Instance inst = gen::uniform_instance(params, /*seed=*/11);
  const std::vector<Event> events = build_event_stream(inst);
  for (const char* name :
       {"MoveToFront", "FirstFit", "BestFit", "NextFit", "LastFit",
        "RandomFit", "WorstFit", "MinExtensionFit", "HarmonicFit",
        "DurationClassFit"}) {
    SCOPED_TRACE(name);
    const PolicyPtr bare_policy = make_policy(name, 3);
    const PolicyPtr recorded_policy = make_policy(name, 3);
    Dispatcher bare(inst.dim(), *bare_policy);
    Dispatcher recorded(inst.dim(), *recorded_policy);
    PackingRecorder recorder;
    recorded.set_recorder(&recorder);
    for (const Event& ev : events) {
      const Item& item = inst[ev.item];
      if (ev.kind == EventKind::kArrival) {
        const auto a = bare.arrive(item.arrival, item);
        const auto b = recorded.arrive(item.arrival, item);
        ASSERT_EQ(a.job, b.job);
        ASSERT_EQ(a.bin, b.bin);
        ASSERT_EQ(a.opened_new_bin, b.opened_new_bin);
      } else {
        bare.depart(ev.time, item.id);
        recorded.depart(ev.time, item.id);
      }
    }
    EXPECT_EQ(dispatcher_state_hash(bare), dispatcher_state_hash(recorded));
    EXPECT_EQ(recorder.num_bins(), recorded.bins_opened());
  }
}

// A replay's history is flat (core/packing_recorder.hpp): the recorder
// allocates nothing per bin or per placement, and the engine only grows
// its tables, so a whole replay makes O(log n) allocations however many
// bins it opens. Traces of n and 2n items at one density must make about
// as many, and far fewer than they open bins.
TEST(LiveMemory, AReplayAllocatesLogarithmicallyNotPerBin) {
  std::int64_t made[2] = {0, 0};
  std::size_t opened[2] = {0, 0};
  for (int k = 0; k < 2; ++k) {
    gen::UniformParams params;
    params.d = 2;
    params.n = 25000 << k;
    params.mu = 20;
    params.span = 2500 << k;
    params.bin_size = 100;
    const std::string path = ::testing::TempDir() + "live_memory_replay_" +
                             std::to_string(k) + ".trc";
    trace::TraceWriter::write_instance(gen::uniform_instance(params, 13),
                                       path);
    const trace::TraceReader reader(path);
    const PolicyPtr policy = make_policy("BestFit", 1);
    const std::int64_t before = allocations();
    const trace::ReplayResult result = trace::replay_trace(reader, *policy);
    made[k] = allocations() - before;
    opened[k] = result.bins_opened;
  }
  EXPECT_GE(opened[1], 10000u) << "the trace opens too few bins";
  EXPECT_LE(made[1], made[0] + 16)
      << made[0] << " allocations for " << opened[0] << " bins, " << made[1]
      << " for " << opened[1];
  EXPECT_LT(made[1] * 50, static_cast<std::int64_t>(opened[1]))
      << made[1] << " allocations for " << opened[1] << " bins";
}

}  // namespace
}  // namespace dvbp

#include "opt/offline_norepack.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/interval_set.hpp"
#include "core/packing_recorder.hpp"
#include "stats/rng.hpp"

namespace dvbp {

namespace {

/// A tentative bin: a set of item ids sharing one server for their lives.
using Group = std::vector<ItemId>;

/// Usage cost of a group: measure of the union of its items' intervals
/// (idle gaps are free -- a gapped bin splits into several at equal cost).
double group_cost(const Instance& inst, const Group& group) {
  IntervalSet usage;
  for (ItemId r : group) usage.add(inst[r].interval());
  return usage.measure();
}

/// True when the group never exceeds unit capacity in any dimension. The
/// load changes only at member arrivals, so checking at each member's
/// arrival instant suffices.
bool group_feasible(const Instance& inst, const Group& group,
                    ItemId extra = kNoItem) {
  auto load_ok_at = [&](Time t) {
    RVec load(inst.dim());
    for (ItemId r : group) {
      if (inst[r].active_at(t)) load += inst[r].size;
    }
    if (extra != kNoItem && inst[extra].active_at(t)) {
      load += inst[extra].size;
    }
    return load.fits_in_capacity(1.0);
  };
  for (ItemId r : group) {
    if (!load_ok_at(inst[r].arrival)) return false;
  }
  if (extra != kNoItem && !load_ok_at(inst[extra].arrival)) return false;
  return true;
}

/// Greedy seed: first-fit the items in the given order.
std::vector<Group> seed_assignment(const Instance& inst,
                                   const std::vector<ItemId>& order) {
  std::vector<Group> groups;
  for (ItemId r : order) {
    bool placed = false;
    for (Group& g : groups) {
      if (group_feasible(inst, g, r)) {
        g.push_back(r);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({r});
  }
  return groups;
}

double total_cost(const Instance& inst, const std::vector<Group>& groups) {
  double c = 0.0;
  for (const Group& g : groups) c += group_cost(inst, g);
  return c;
}

/// Steepest-feasible-descent: move single items between groups while the
/// total usage time drops.
void local_search(const Instance& inst, std::vector<Group>& groups,
                  const NoRepackOptions& opts, std::size_t* sweeps,
                  std::size_t* moves) {
  for (std::size_t sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    if (sweeps) ++*sweeps;
    bool improved = false;
    for (std::size_t src = 0; src < groups.size(); ++src) {
      for (std::size_t pos = 0; pos < groups[src].size(); ++pos) {
        const ItemId r = groups[src][pos];
        Group without = groups[src];
        without.erase(without.begin() + static_cast<std::ptrdiff_t>(pos));
        const double src_delta =
            group_cost(inst, without) - group_cost(inst, groups[src]);

        double best_delta = -1e-9;  // require strict improvement
        std::size_t best_dst = groups.size();
        for (std::size_t dst = 0; dst < groups.size(); ++dst) {
          if (dst == src) continue;
          if (!group_feasible(inst, groups[dst], r)) continue;
          Group with = groups[dst];
          with.push_back(r);
          const double dst_delta =
              group_cost(inst, with) - group_cost(inst, groups[dst]);
          const double delta = src_delta + dst_delta;
          if (delta < best_delta) {
            best_delta = delta;
            best_dst = dst;
          }
        }
        if (best_dst < groups.size()) {
          groups[best_dst].push_back(r);
          groups[src] = std::move(without);
          if (moves) ++*moves;
          improved = true;
          if (groups[src].empty()) {
            groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(src));
            --src;
            break;  // restart the inner scan of this (now different) group
          }
          --pos;  // positions shifted
        }
      }
    }
    if (!improved) break;
  }
}

/// Converts groups into a Packing, splitting gapped groups into one bin
/// per maximal contiguous usage interval (the model's bins never idle).
Packing to_packing(const Instance& inst, const std::vector<Group>& groups) {
  PackingRecorder recorder(inst.size());
  for (const Group& g : groups) {
    IntervalSet usage;
    for (ItemId r : g) usage.add(inst[r].interval());
    for (const Interval& part : usage.parts()) {
      std::vector<ItemId> items;
      for (ItemId r : g) {
        if (part.covers(inst[r].interval())) items.push_back(r);
      }
      std::sort(items.begin(), items.end(), [&](ItemId a, ItemId b) {
        if (inst[a].arrival != inst[b].arrival) {
          return inst[a].arrival < inst[b].arrival;
        }
        return a < b;
      });
      const auto bin = static_cast<BinId>(recorder.num_bins());
      recorder.open(bin, part.lo);
      for (ItemId r : items) recorder.place(r, bin);
      recorder.close(bin, part.hi);
    }
  }
  return std::move(recorder).packing();
}

}  // namespace

NoRepackResult offline_norepack(const Instance& inst,
                                const NoRepackOptions& opts) {
  if (auto err = inst.validate()) {
    throw std::invalid_argument("offline_norepack: invalid instance: " +
                                *err);
  }
  NoRepackResult result;
  if (inst.empty()) return result;

  // Deterministic seed: longest-duration first (long items anchor bins).
  std::vector<ItemId> order(inst.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    if (inst[a].duration() != inst[b].duration()) {
      return inst[a].duration() > inst[b].duration();
    }
    return a < b;
  });

  Xoshiro256pp rng(opts.seed);
  std::vector<Group> best;
  double best_cost = 0.0;
  for (std::size_t attempt = 0; attempt <= opts.restarts; ++attempt) {
    if (attempt > 0) {
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i)));
        std::swap(order[i], order[j]);
      }
    }
    std::vector<Group> groups = seed_assignment(inst, order);
    local_search(inst, groups, opts, &result.sweeps, &result.moves);
    const double cost = total_cost(inst, groups);
    if (best.empty() || cost < best_cost) {
      best = std::move(groups);
      best_cost = cost;
    }
  }

  result.packing = to_packing(inst, best);
  result.cost = result.packing.cost();
  return result;
}

}  // namespace dvbp

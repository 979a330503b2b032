#include "core/invariants.hpp"

#include <cmath>
#include <sstream>
#include <unordered_map>

#include "core/bin_state.hpp"
#include "core/dispatcher.hpp"
#include "core/fits.hpp"
#include "core/open_bin_table.hpp"
#include "core/packing_recorder.hpp"

namespace dvbp {

namespace {

// Incremental load bookkeeping accumulates rounding error relative to a
// fresh sum; tolerate a little more than kCapacityEps per dimension.
constexpr double kLoadEps = 1e-7;

std::string bin_str(BinId bin) { return "bin " + std::to_string(bin); }

}  // namespace

std::optional<std::string> PackingInvariantChecker::check(
    const Dispatcher& d, const PackingRecorder* recorder) {
  // --- Invariant 1: open-bin loads --------------------------------------
  std::unordered_map<JobId, BinId> placed;  // job -> hosting open bin
  std::size_t active_in_bins = 0;
  std::size_t live_views = 0;
  BinId previous = kNoBin;
  const std::span<const BinView> views = d.open_views();
  const OpenBinTable& table = d.open_table();
  if (table.size() != views.size()) {
    return std::to_string(views.size()) + " views but " +
           std::to_string(table.size()) + " table slots";
  }
  for (std::size_t slot = 0; slot < views.size(); ++slot) {
    const BinView& view = views[slot];
    if (view.id == kNoBin) {  // a closed bin's hole
      if (view.num_items != 0) return "a hole view lists items";
      continue;
    }
    // Bins open in id order, and the table keeps opening order.
    if (previous != kNoBin && view.id <= previous) {
      return bin_str(view.id) + " out of opening order after " +
             bin_str(previous);
    }
    previous = view.id;
    ++live_views;
    const BinState* bin = d.open_bin_state(view.id);
    if (bin == nullptr) {
      return bin_str(view.id) + " has a view but no open state";
    }
    RVec sum(d.dim());
    for (ItemId job : bin->active_items()) {
      const Item* item = d.job(job);
      if (item == nullptr) {
        return bin_str(view.id) + " lists unknown job " +
               std::to_string(job);
      }
      const RVec& size = item->size;
      for (std::size_t k = 0; k < d.dim(); ++k) sum[k] += size[k];
      auto [it, fresh] = placed.emplace(job, view.id);
      if (!fresh) {
        return "job " + std::to_string(job) + " active in " +
               bin_str(it->second) + " and " + bin_str(view.id);
      }
      ++active_in_bins;
    }
    for (std::size_t k = 0; k < d.dim(); ++k) {
      const double stored = table.lane(k)[slot];
      if (std::abs(sum[k] - stored) > kLoadEps) {
        std::ostringstream os;
        os << bin_str(view.id) << " load drift in dim " << k << ": stored "
           << stored << " vs recomputed " << sum[k];
        return os.str();
      }
      // The audit's capacity verdict uses the same fits.hpp threshold and
      // predicate as the placement paths (scalar and SIMD), so a load the
      // engine admitted can never be rejected here by one ulp.
      if (!fits_under_threshold(sum[k], table.threshold())) {
        std::ostringstream os;
        os << bin_str(view.id) << " over capacity in dim " << k << ": "
           << sum[k] << " > " << table.capacity();
        return os.str();
      }
    }
    if (view.num_items != bin->num_active() ||
        view.latest_departure != bin->latest_departure()) {
      return bin_str(view.id) + " view out of sync with its item list";
    }
  }

  if (live_views != d.open_bins()) {
    return std::to_string(live_views) + " live views but open_bins() is " +
           std::to_string(d.open_bins());
  }

  // --- Invariant 2: every live job placed exactly once ------------------
  if (d.jobs_active() < d.jobs_evicted()) {
    return "more evicted jobs than active jobs";
  }
  if (active_in_bins != d.jobs_active() - d.jobs_evicted()) {
    return "active job count mismatch: bins hold " +
           std::to_string(active_in_bins) + ", dispatcher reports " +
           std::to_string(d.jobs_active() - d.jobs_evicted());
  }
  std::size_t live = 0;
  std::optional<std::string> misplaced;
  d.for_each_job([&](const Dispatcher::LiveJob& job) {
    ++live;
    const auto it = placed.find(job.item.id);
    const BinId active_in = it == placed.end() ? kNoBin : it->second;
    if (active_in != job.bin && !misplaced) {
      misplaced = "job " + std::to_string(job.item.id) + " assigned to " +
                  (job.bin == kNoBin ? "no bin" : bin_str(job.bin)) +
                  " but active in " +
                  (active_in == kNoBin ? "none" : bin_str(active_in));
    }
  });
  if (misplaced) return misplaced;
  if (live != d.jobs_active()) {
    return std::to_string(live) + " live jobs but jobs_active() is " +
           std::to_string(d.jobs_active());
  }

  // --- Invariant 3: closed bins immutable, cost monotone ----------------
  if (recorder != nullptr) {
    if (recorder->num_bins() != d.bins_opened()) {
      return "recorder holds " + std::to_string(recorder->num_bins()) +
             " bins but bins_opened() is " + std::to_string(d.bins_opened());
    }
    closed_seen_.resize(recorder->num_bins());
    for (BinId id = 0; id < recorder->num_bins(); ++id) {
      const PackingRecorder::RecordedBin& rec = recorder->bin(id);
      const bool open = d.open_bin_state(id) != nullptr;
      ClosedBin& seen = closed_seen_[id];
      if (seen.seen) {
        if (open) return bin_str(id) + " reopened after closing";
        if (rec.opened != seen.opened || rec.closed != seen.closed ||
            rec.placements != seen.items) {
          return bin_str(id) + " closed record mutated";
        }
        continue;
      }
      if (open) continue;
      if (rec.closed < rec.opened - kTimeEps) {
        return bin_str(id) + " closed before it opened";
      }
      seen = ClosedBin{rec.opened, rec.closed, rec.placements, true};
    }
  }
  const double closed_usage = d.closed_usage();
  const double cost = d.cost_so_far(d.last_event_time());
  if (have_watermarks_) {
    if (closed_usage < last_closed_usage_ - kTimeEps) {
      return "closed usage decreased";
    }
    if (cost < last_cost_ - kTimeEps) {
      return "cost_so_far decreased at the event horizon";
    }
  }
  last_closed_usage_ = closed_usage;
  last_cost_ = cost;
  have_watermarks_ = true;
  return std::nullopt;
}

std::optional<std::string> PackingInvariantChecker::check_budget(
    const MigrationBudgetUsage& usage) {
  if (static_cast<double>(usage.migrations) >
      usage.migration_credits + 1e-9) {
    std::ostringstream os;
    os << "migration budget overdrawn: " << usage.migrations
       << " migrations vs " << usage.migration_credits << " credits";
    return os.str();
  }
  if (usage.volume > usage.volume_credits + 1e-9) {
    std::ostringstream os;
    os << "volume budget overdrawn: " << usage.volume << " vs "
       << usage.volume_credits << " credits";
    return os.str();
  }
  return std::nullopt;
}

}  // namespace dvbp

#include "core/rebalancer.hpp"

#include <algorithm>
#include <cmath>

#include "core/bin_state.hpp"

namespace dvbp {

namespace {
constexpr double kBudgetEps = 1e-9;
}  // namespace

Rebalancer::Rebalancer(const Dispatcher& dispatcher, MigrationConfig config,
                       MigrationExec exec)
    : dispatcher_(dispatcher), config_(config), exec_(std::move(exec)) {}

Rebalancer::Rebalancer(Dispatcher& dispatcher, MigrationConfig config)
    : Rebalancer(static_cast<const Dispatcher&>(dispatcher), config,
                 MigrationExec{
                     [d = &dispatcher](Time t, JobId j) { d->evict(t, j); },
                     [d = &dispatcher](Time t, JobId j, BinId b) {
                       return d->replace(t, j, b);
                     }}) {}

std::size_t Rebalancer::on_departure(Time now) {
  if (config_.migrations_per_event <= 0.0) return 0;
  ++stats_.events;
  credits_ = std::min(credits_ + config_.migrations_per_event,
                      config_.burst_factor * config_.migrations_per_event);
  volume_credits_ =
      std::min(volume_credits_ + config_.volume_per_event,
               config_.burst_factor * config_.volume_per_event);
  stats_.migration_credits += config_.migrations_per_event;
  stats_.volume_credits += config_.volume_per_event;

  std::size_t moved = 0;
  Plan plan;
  while (plan_close(plan)) {
    execute(now, plan);
    moved += plan.jobs.size();
  }
  return moved;
}

// Finds the next bin the budget can close: candidates from fewest
// survivors (ties: lowest id), survivors relocated first-fit over the
// other open bins in opening order against scratch loads. All-or-nothing.
bool Rebalancer::plan_close(Plan& plan) const {
  const auto views = dispatcher_.open_views();
  const OpenBinTable& table = dispatcher_.open_table();
  if (views.size() < 2) return false;

  std::vector<std::size_t> candidates;
  for (std::size_t slot = 0; slot < views.size(); ++slot) {
    const std::size_t n = views[slot].num_items;
    if (n >= 1 && n <= config_.max_survivors &&
        static_cast<double>(n) <= credits_ + kBudgetEps) {
      candidates.push_back(slot);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&views](std::size_t a, std::size_t b) {
              if (views[a].num_items != views[b].num_items) {
                return views[a].num_items < views[b].num_items;
              }
              return views[a].id < views[b].id;
            });

  std::vector<RVec> scratch;
  for (std::size_t c : candidates) {
    const BinState* source = dispatcher_.open_bin_state(views[c].id);
    const std::vector<JobId> jobs = source->active_items();

    double volume = 0.0;
    for (JobId job : jobs) volume += dispatcher_.job(job)->size.l1();
    if (volume > volume_credits_ + kBudgetEps) continue;

    scratch.clear();
    for (std::size_t slot = 0; slot < views.size(); ++slot) {
      scratch.push_back(table.load(slot));
    }

    plan.jobs.assign(jobs.begin(), jobs.end());
    plan.targets.clear();
    bool feasible = true;
    for (JobId job : plan.jobs) {
      const RVec& size = dispatcher_.job(job)->size;
      BinId target = kNoBin;
      for (std::size_t slot = 0; slot < views.size(); ++slot) {
        if (slot == c) continue;
        if (scratch[slot].fits_with_capacity(size, table.capacity())) {
          target = views[slot].id;
          for (std::size_t k = 0; k < size.dim(); ++k) {
            scratch[slot][k] += size[k];
          }
          break;
        }
      }
      if (target == kNoBin) {
        feasible = false;
        break;
      }
      plan.targets.push_back(target);
    }
    if (!feasible) continue;

    plan.source = views[c].id;
    plan.volume = volume;
    return true;
  }
  return false;
}

void Rebalancer::execute(Time now, const Plan& plan) {
  for (JobId job : plan.jobs) exec_.evict(now, job);
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    exec_.replace(now, plan.jobs[i], plan.targets[i]);
  }
  credits_ -= static_cast<double>(plan.jobs.size());
  volume_credits_ -= plan.volume;
  stats_.migrations += plan.jobs.size();
  stats_.migrated_volume += plan.volume;
  ++stats_.bins_closed;
}

MigrationBudgetUsage Rebalancer::budget_usage() const noexcept {
  return MigrationBudgetUsage{stats_.migrations, stats_.migrated_volume,
                              stats_.migration_credits,
                              stats_.volume_credits};
}

}  // namespace dvbp

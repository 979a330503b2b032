// UsageAccountant: per-tenant usage metering over the dispatcher's event
// stream (docs/TENANCY.md).
//
// Implements core's TenantUsageHook. Between allocator events the active
// demand of every tenant and the open-bin count are constant, so accruing
// each interval [last event, event) at the pre-event state integrates both
// exactly:
//
//   demand_integral(t)  = INT active_demand_t dt     -- billed utilization
//   attributed(t)       = INT open_bins * demand_t / total_demand dt
//
// The second is the eq. (1) objective (total bin usage time) split across
// tenants in proportion to their instantaneous demand -- the cost
// attribution rule of Lee & Tang's DVBP evaluation. Demand is measured in
// bin units: the l-inf norm of the item size, i.e. the fraction of one bin
// the item's dominant dimension occupies (the paper's utilization measure,
// Lemma 1).
//
// Items with tenant kNoTenant (or out of range) are charged to tenant 0,
// so a mislabeled stream inflates "the house" rather than crashing or
// silently dropping usage.
//
// Not thread-safe: one accountant per dispatcher, driven by that
// dispatcher's single owner (each shard of the sharded service owns one).
#pragma once

#include <cstdint>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/rvec.hpp"
#include "core/serial.hpp"
#include "core/types.hpp"

namespace dvbp::tenancy {

class UsageAccountant final : public TenantUsageHook {
 public:
  explicit UsageAccountant(std::uint32_t num_tenants);

  std::uint32_t num_tenants() const noexcept {
    return static_cast<std::uint32_t>(demand_.size());
  }

  // --- TenantUsageHook (called by the Dispatcher) -----------------------
  void on_arrive(const Item& job, Time now,
                 std::size_t open_bins) override;
  void on_depart(const Item& job, Time now,
                 std::size_t open_bins) override;
  void on_advance(Time now, std::size_t open_bins) override;

  // --- Ledgers ----------------------------------------------------------

  /// Current active demand of `tenant`, in bin units (sum of l-inf sizes).
  double active_demand(TenantId tenant) const;
  /// Billed utilization: INT active_demand dt up to the last event.
  double demand_integral(TenantId tenant) const;
  /// `tenant`'s demand-proportional share of total bin-seconds so far.
  double attributed_bin_seconds(TenantId tenant) const;
  /// INT open_bins dt observed so far (the live eq. (1) objective);
  /// bin-seconds metered while no tenant had demand stay unattributed.
  double total_bin_seconds() const noexcept { return bin_seconds_; }
  double unattributed_bin_seconds() const noexcept { return unattributed_; }
  Time last_event() const noexcept { return last_; }

  /// Per-tenant demand-integral deltas since the previous cut (the
  /// settlement epoch the Arbiter consumes), and advances the cut marks.
  /// Does NOT advance the clock -- call on_advance first if time passed
  /// since the last dispatcher event.
  std::vector<double> cut_epoch();

  /// Demand-integral deltas accrued since the previous cut, without
  /// advancing the marks (for merging shard accountants: sum the peeks,
  /// then commit_epoch() on each).
  std::vector<double> peek_epoch() const;
  void commit_epoch();

  // --- Crash safety (opaque blob inside checkpoints) --------------------
  void save_state(serial::Writer& out) const override;
  void restore_state(serial::Reader& in) override;

 private:
  std::uint32_t slot(TenantId tenant) const noexcept {
    return tenant < demand_.size() ? tenant : 0;
  }
  void accrue(Time now, std::size_t open_bins);

  std::vector<double> demand_;        // active demand, bin units
  std::vector<double> integral_;      // INT demand dt
  std::vector<double> epoch_mark_;    // integral_ at the last cut
  std::vector<double> attributed_;    // demand-share-weighted bin-seconds
  double bin_seconds_ = 0.0;
  double unattributed_ = 0.0;
  Time last_ = 0.0;
  bool started_ = false;
};

}  // namespace dvbp::tenancy

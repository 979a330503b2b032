#include "tenancy/accountant.hpp"

#include <algorithm>
#include <stdexcept>

namespace dvbp::tenancy {

UsageAccountant::UsageAccountant(std::uint32_t num_tenants)
    : demand_(num_tenants, 0.0), integral_(num_tenants, 0.0),
      epoch_mark_(num_tenants, 0.0), attributed_(num_tenants, 0.0) {
  if (num_tenants == 0) {
    throw std::invalid_argument("UsageAccountant: need >= 1 tenant");
  }
}

void UsageAccountant::accrue(Time now, std::size_t open_bins) {
  if (!started_) {
    started_ = true;
    last_ = now;
    return;
  }
  const double dt = now - last_;
  if (dt <= 0.0) return;
  double total = 0.0;
  for (std::size_t t = 0; t < demand_.size(); ++t) {
    integral_[t] += demand_[t] * dt;
    total += demand_[t];
  }
  const double bins = static_cast<double>(open_bins) * dt;
  bin_seconds_ += bins;
  if (total > 0.0) {
    for (std::size_t t = 0; t < demand_.size(); ++t) {
      attributed_[t] += bins * (demand_[t] / total);
    }
  } else {
    unattributed_ += bins;
  }
  last_ = now;
}

void UsageAccountant::on_arrive(const Item& job, Time now,
                                std::size_t open_bins) {
  accrue(now, open_bins);
  demand_[slot(job.tenant)] += job.size.linf();
}

void UsageAccountant::on_depart(const Item& job, Time now,
                                std::size_t open_bins) {
  accrue(now, open_bins);
  // Subtracting the exact value added at arrival leaves at most float
  // residue; clamp so an "idle" tenant reads exactly zero demand.
  double& d = demand_[slot(job.tenant)];
  d = std::max(0.0, d - job.size.linf());
}

void UsageAccountant::on_advance(Time now, std::size_t open_bins) {
  accrue(now, open_bins);
}

double UsageAccountant::active_demand(TenantId tenant) const {
  return demand_[slot(tenant)];
}

double UsageAccountant::demand_integral(TenantId tenant) const {
  return integral_[slot(tenant)];
}

double UsageAccountant::attributed_bin_seconds(TenantId tenant) const {
  return attributed_[slot(tenant)];
}

std::vector<double> UsageAccountant::peek_epoch() const {
  std::vector<double> usage(demand_.size());
  for (std::size_t t = 0; t < demand_.size(); ++t) {
    usage[t] = integral_[t] - epoch_mark_[t];
  }
  return usage;
}

void UsageAccountant::commit_epoch() { epoch_mark_ = integral_; }

std::vector<double> UsageAccountant::cut_epoch() {
  std::vector<double> usage = peek_epoch();
  commit_epoch();
  return usage;
}

void UsageAccountant::save_state(serial::Writer& out) const {
  out.u32(static_cast<std::uint32_t>(demand_.size()));
  for (double d : demand_) out.f64(d);
  for (double v : integral_) out.f64(v);
  for (double v : epoch_mark_) out.f64(v);
  for (double v : attributed_) out.f64(v);
  out.f64(bin_seconds_);
  out.f64(unattributed_);
  out.f64(last_);
  out.u8(started_ ? 1 : 0);
}

void UsageAccountant::restore_state(serial::Reader& in) {
  const std::uint32_t n = in.u32();
  if (n != demand_.size()) {
    throw serial::SerialError(
        "UsageAccountant::restore_state: tenant-count mismatch");
  }
  for (double& d : demand_) d = in.f64();
  for (double& v : integral_) v = in.f64();
  for (double& v : epoch_mark_) v = in.f64();
  for (double& v : attributed_) v = in.f64();
  bin_seconds_ = in.f64();
  unattributed_ = in.f64();
  last_ = in.f64();
  started_ = in.u8() != 0;
}

}  // namespace dvbp::tenancy

// Best Fit / Worst Fit share a load-measure abstraction. For d >= 2 there is
// no canonical scalar "load" of a bin; the paper (Sec. 2.2) lists max load
// (L_inf), sum of loads (L1), and Lp norms as options. Sec. 7 evaluates
// Best Fit with w(R) = ||s(R)||_inf; the load-measure ablation (bench E8)
// compares the options. Best Fit's CR is unbounded even for d = 1 (Thm 7,
// citing [22]).
#pragma once

#include <string>

#include "core/policies/policy.hpp"

namespace dvbp {

/// Scalarization of a d-dimensional bin load.
enum class LoadMeasure {
  kLinf,  ///< max component (the paper's experimental choice)
  kL1,    ///< sum of components
  kL2,    ///< Euclidean norm
};

std::string_view load_measure_name(LoadMeasure m) noexcept;
double measure_load(const RVec& load, LoadMeasure m);

class BestFitPolicy final : public Policy {
 public:
  explicit BestFitPolicy(LoadMeasure measure = LoadMeasure::kLinf)
      : measure_(measure),
        name_(std::string("BestFit[") +
              std::string(load_measure_name(measure)) + "]") {}

  std::string_view name() const noexcept override { return name_; }
  LoadMeasure measure() const noexcept { return measure_; }

  /// Most-loaded fitting bin, ties broken toward the earliest opened.
  /// Branch-light table scan: vectorized feasibility, measure computed
  /// from the lanes with measure_load()'s exact operation order.
  BinId select_bin(Time now, const Item& item,
                   std::span<const BinView> open_bins,
                   const OpenBinTable& table) override;

 private:
  LoadMeasure measure_;
  std::string name_;
};

}  // namespace dvbp

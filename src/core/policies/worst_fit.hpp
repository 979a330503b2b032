// Worst Fit: place the item in the *least* loaded fitting bin (paper
// Sec. 7). Spreads items thin; included as the experimental strawman.
#pragma once

#include <string>

#include "core/policies/best_fit.hpp"

namespace dvbp {

class WorstFitPolicy final : public Policy {
 public:
  explicit WorstFitPolicy(LoadMeasure measure = LoadMeasure::kLinf)
      : measure_(measure),
        name_(std::string("WorstFit[") +
              std::string(load_measure_name(measure)) + "]") {}

  std::string_view name() const noexcept override { return name_; }
  LoadMeasure measure() const noexcept { return measure_; }

  /// Least-loaded fitting bin, ties broken toward the earliest opened.
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

// Class-restricted First Fit policies. These are NOT Any Fit algorithms:
// they may open a new bin even though an open bin of a *different* class
// could hold the item. Included because classification is the standard
// route to better bounds in the bin packing literature:
//
//  * HarmonicFit -- classify items by size (the classic Harmonic family
//    [17, 29] adapted to vectors via the L_inf norm): class c items have
//    1/(c+1) < ||s||_inf <= 1/c, so a class-c bin holds at most c items in
//    its critical dimension. Non-clairvoyant.
//
//  * DurationClassFit -- classify items by duration on a geometric scale
//    (class = floor(log2(duration))) and First Fit within the class. This
//    is the alignment idea behind the clairvoyant MinUsageTime algorithms
//    [27, 2]: items in one bin depart within a factor 2 of each other, so
//    bins don't linger for one straggler. Clairvoyant (reads durations).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/policies/policy.hpp"

namespace dvbp {

/// Base: First Fit among open bins of the item's class only.
class ClassRestrictedFitPolicy : public Policy {
 public:
  BinId select_bin(Time now, const Item& item,
                   std::span<const BinView> open_bins,
                   const OpenBinTable& table) final;
  void on_open(Time now, BinId bin, const Item& first) override;
  void on_depart(Time now, BinId bin, const Item& item, bool closed) override;
  void reset() override;
  void save_state(serial::Writer& out) const override;
  void restore_state(serial::Reader& in) override;

  /// Class of the bin (for tests/diagnostics); throws if unknown.
  std::int64_t bin_class(BinId bin) const { return bin_class_.at(bin); }

 protected:
  /// Classifies an item; items only share bins within a class.
  virtual std::int64_t item_class(const Item& item) const = 0;

 private:
  std::unordered_map<BinId, std::int64_t> bin_class_;
};

class HarmonicFitPolicy final : public ClassRestrictedFitPolicy {
 public:
  /// `max_class` caps the number of classes: items with
  /// ||s||_inf <= 1/max_class share the final class.
  explicit HarmonicFitPolicy(std::int64_t max_class = 20);

  std::string_view name() const noexcept override { return name_; }
  std::int64_t max_class() const noexcept { return max_class_; }

 protected:
  std::int64_t item_class(const Item& item) const override;

 private:
  std::int64_t max_class_;
  std::string name_;
};

class DurationClassFitPolicy final : public ClassRestrictedFitPolicy {
 public:
  DurationClassFitPolicy() = default;

  std::string_view name() const noexcept override {
    return "DurationClassFit";
  }
  bool is_clairvoyant() const noexcept override { return true; }

 protected:
  std::int64_t item_class(const Item& item) const override;
};

}  // namespace dvbp

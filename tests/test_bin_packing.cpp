// Tests for an open bin's bookkeeping -- its item list (BinState) and its
// load (OpenBinTable) -- and the Packing offline auditor.
#include <gtest/gtest.h>

#include "core/bin_state.hpp"
#include "core/open_bin_table.hpp"
#include "core/packing.hpp"

namespace dvbp {
namespace {

std::vector<Item> three_items() {
  return {
      Item(0, 0.0, 2.0, RVec{0.5, 0.2}),
      Item(1, 0.0, 3.0, RVec{0.4, 0.4}),
      Item(2, 1.0, 4.0, RVec{0.3, 0.1}),
  };
}

TEST(BinState, AddTracksItemsAndLatestDeparture) {
  const auto items = three_items();
  UsagePool pool;
  BinState bin(0, 0.0, &pool);
  EXPECT_TRUE(bin.is_empty());
  bin.add(items[0]);
  bin.add(items[1]);
  EXPECT_EQ(bin.num_active(), 2u);
  EXPECT_EQ(bin.active_items(), (std::vector<ItemId>{0, 1}));
  EXPECT_EQ(bin.total_packed(), 2u);
  EXPECT_DOUBLE_EQ(bin.latest_departure(), 3.0);
}

TEST(BinState, RemoveUpdatesLatestDeparture) {
  const auto items = three_items();
  UsagePool pool;
  BinState bin(0, 0.0, &pool);
  bin.add(items[0]);
  bin.add(items[1]);
  EXPECT_FALSE(bin.remove(items[1]));
  EXPECT_DOUBLE_EQ(bin.latest_departure(), 2.0);
  EXPECT_TRUE(bin.remove(items[0]));
  EXPECT_TRUE(bin.is_empty());
  // total_packed survives removals (lifetime counter).
  EXPECT_EQ(bin.total_packed(), 2u);
}

TEST(OpenBinTable, AddAccumulatesLoad) {
  const auto items = three_items();
  OpenBinTable table(2);
  table.push_back_zero();
  table.add(0, items[0].size.data());
  table.add(0, items[1].size.data());
  EXPECT_NEAR(table.load(0)[0], 0.9, 1e-12);
  EXPECT_NEAR(table.load(0)[1], 0.6, 1e-12);
}

TEST(OpenBinTable, FitsRespectsEveryDimension) {
  const auto items = three_items();
  OpenBinTable table(2);
  table.push_back_zero();
  table.add(0, items[0].size.data());  // load (0.5, 0.2)
  EXPECT_TRUE(table.fits(0, RVec{0.5, 0.8}.data()));
  EXPECT_FALSE(table.fits(0, RVec{0.6, 0.1}.data()));
  EXPECT_FALSE(table.fits(0, RVec{0.1, 0.9}.data()));
}

TEST(OpenBinTable, SubClampedStopsAtZero) {
  const auto items = three_items();
  OpenBinTable table(2);
  table.push_back_zero();
  table.add(0, items[0].size.data());
  table.add(0, items[1].size.data());
  table.sub_clamped(0, items[1].size.data());
  EXPECT_NEAR(table.load(0)[0], 0.5, 1e-12);
  // 0.5 + 0.4 - 0.4 need not be 0.5 exactly; taking out more than is
  // left must end at 0, never below.
  table.sub_clamped(0, items[1].size.data());
  table.sub_clamped(0, items[1].size.data());
  EXPECT_EQ(table.load(0)[0], 0.0);
  EXPECT_EQ(table.load(0)[1], 0.0);
}

// ---- Packing auditor ----------------------------------------------------

Instance audit_instance() {
  Instance inst(1);
  inst.add(0.0, 2.0, RVec{0.6});
  inst.add(1.0, 3.0, RVec{0.6});
  return inst;
}

TEST(Packing, ValidAccepted) {
  Instance inst = audit_instance();
  // Item 0 -> bin 0, item 1 -> bin 1 (they overlap and don't fit together).
  Packing p({0, 1}, {BinRecord{0, 0.0, 2.0, {0}}, BinRecord{1, 1.0, 3.0, {1}}});
  EXPECT_FALSE(p.validate(inst).has_value());
  EXPECT_DOUBLE_EQ(p.cost(), 4.0);
  EXPECT_EQ(p.open_bins_at(1.5), 2u);
  EXPECT_EQ(p.open_bins_at(2.5), 1u);
}

TEST(Packing, DetectsOverload) {
  Instance inst = audit_instance();
  // Both items in one bin: 1.2 > 1 during [1,2).
  Packing p({0, 0}, {BinRecord{0, 0.0, 3.0, {0, 1}}});
  const auto err = p.validate(inst);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("overload"), std::string::npos);
}

TEST(Packing, DetectsWrongUsagePeriod) {
  Instance inst = audit_instance();
  Packing p({0, 1},
            {BinRecord{0, 0.0, 2.5, {0}}, BinRecord{1, 1.0, 3.0, {1}}});
  ASSERT_TRUE(p.validate(inst).has_value());
}

TEST(Packing, DetectsMissingItem) {
  Instance inst = audit_instance();
  Packing p({0, 0}, {BinRecord{0, 0.0, 2.0, {0}}});
  ASSERT_TRUE(p.validate(inst).has_value());
}

TEST(Packing, DetectsDoublePacking) {
  Instance inst = audit_instance();
  Packing p({0, 1}, {BinRecord{0, 0.0, 2.0, {0, 0}},
                     BinRecord{1, 1.0, 3.0, {1}}});
  ASSERT_TRUE(p.validate(inst).has_value());
}

TEST(Packing, DetectsAssignmentMismatch) {
  Instance inst = audit_instance();
  Packing p({1, 1}, {BinRecord{0, 0.0, 2.0, {0}}, BinRecord{1, 1.0, 3.0, {1}}});
  ASSERT_TRUE(p.validate(inst).has_value());
}

TEST(Packing, DetectsIdleGap) {
  // Items [0,1) and [2,3) in the same bin: the bin would sit idle on [1,2),
  // which the model forbids (a closed bin never reopens).
  Instance inst(1);
  inst.add(0.0, 1.0, RVec{0.5});
  inst.add(2.0, 3.0, RVec{0.5});
  Packing p({0, 0}, {BinRecord{0, 0.0, 3.0, {0, 1}}});
  const auto err = p.validate(inst);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("idle"), std::string::npos);
}

TEST(Packing, GanttCsvListsBinsAndItems) {
  Instance inst = audit_instance();
  Packing p({0, 1},
            {BinRecord{0, 0.0, 2.0, {0}}, BinRecord{1, 1.0, 3.0, {1}}});
  const std::string csv = p.to_gantt_csv(inst);
  EXPECT_NE(csv.find("kind,bin,item,start,end\n"), std::string::npos);
  EXPECT_NE(csv.find("bin,0,,0,2\n"), std::string::npos);
  EXPECT_NE(csv.find("item,0,0,0,2\n"), std::string::npos);
  EXPECT_NE(csv.find("bin,1,,1,3\n"), std::string::npos);
  EXPECT_NE(csv.find("item,1,1,1,3\n"), std::string::npos);
}

TEST(Packing, EmptyPackingOfEmptyInstance) {
  Instance inst(1);
  Packing p;
  EXPECT_FALSE(p.validate(inst).has_value());
  EXPECT_DOUBLE_EQ(p.cost(), 0.0);
  EXPECT_EQ(p.num_bins(), 0u);
}

}  // namespace
}  // namespace dvbp

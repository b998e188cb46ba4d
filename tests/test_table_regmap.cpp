// Tests for the Time Slot Table quality metrics, the placement-policy knob,
// and the hypervisor's MMIO register map.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/pchannel.hpp"
#include "core/regmap.hpp"
#include "sched/table_metrics.hpp"
#include "task_builders.hpp"
#include "workload/generator.hpp"

namespace ioguard {
namespace {

using sched::SlotPlacement;
using sched::TimeSlotTable;

// ------------------------------------------------------------- table metrics

TEST(TableMetrics, HandBuiltTable) {
  // H = 8: slots 0,1 busy; 4 busy; rest free (circularly: busy runs {0,1},
  // {4}; free runs {2,3}, {5,6,7}).
  TimeSlotTable t(8);
  t.reserve(0, TaskId{1});
  t.reserve(1, TaskId{1});
  t.reserve(4, TaskId{1});
  const auto m = sched::analyze_table(t);
  EXPECT_EQ(m.hyperperiod, 8u);
  EXPECT_EQ(m.free_slots, 5u);
  EXPECT_EQ(m.longest_busy_run, 2u);
  EXPECT_EQ(m.longest_free_gap, 3u);
  EXPECT_EQ(m.busy_runs, 2u);
  // Worst window of length 3 (slots 0,1 busy + one more) still has a free
  // slot? Window [7,0,1] has one free (7). Window [0,1,2]: one free. So
  // sbf(3) >= 1, but sbf(2) = 0 because [0,1] is all busy.
  EXPECT_EQ(m.first_supply_at, 3u);
}

TEST(TableMetrics, CircularBusyRunDetected) {
  // Busy run wrapping the boundary: slots 6,7,0 reserved.
  TimeSlotTable t(8);
  t.reserve(6, TaskId{1});
  t.reserve(7, TaskId{1});
  t.reserve(0, TaskId{1});
  const auto m = sched::analyze_table(t);
  EXPECT_EQ(m.longest_busy_run, 3u);
  EXPECT_EQ(m.busy_runs, 1u);
}

TEST(TableMetrics, AllFreeAndAllBusyEdges) {
  TimeSlotTable free_table(6);
  const auto mf = sched::analyze_table(free_table);
  EXPECT_EQ(mf.longest_busy_run, 0u);
  EXPECT_EQ(mf.longest_free_gap, 6u);
  EXPECT_EQ(mf.first_supply_at, 1u);
  EXPECT_DOUBLE_EQ(mf.bandwidth, 1.0);
}

TEST(TableMetrics, SpreadPlacementBeatsEdfPackOnEveryAxis) {
  // The design choice DESIGN.md calls out: same pre-defined demand, two
  // placements -- spread leaves shorter busy runs and more admissible
  // R-channel bandwidth.
  workload::TaskSet ts;
  ts.add(tests::predefined_task(0, 100, 20, 100));
  ts.add(tests::predefined_task(1, 200, 30, 200));
  ts.add(tests::predefined_task(2, 400, 60, 400));

  const auto spread =
      sched::build_time_slot_table(ts, Slot{1} << 24, SlotPlacement::kSpread);
  const auto packed =
      sched::build_time_slot_table(ts, Slot{1} << 24, SlotPlacement::kEdfPack);
  ASSERT_TRUE(spread.feasible);
  ASSERT_TRUE(packed.feasible);

  const auto ms = sched::analyze_table(spread.table);
  const auto mp = sched::analyze_table(packed.table);
  EXPECT_EQ(ms.free_slots, mp.free_slots) << "same demand => same F";
  EXPECT_LT(ms.longest_busy_run, mp.longest_busy_run);
  EXPECT_LT(ms.first_supply_at, mp.first_supply_at);
  EXPECT_GT(ms.supply_efficiency_100, mp.supply_efficiency_100);

  const double bw_spread = sched::admissible_bandwidth(spread.table);
  const double bw_packed = sched::admissible_bandwidth(packed.table);
  EXPECT_GT(bw_spread, bw_packed);
}

TEST(TableMetrics, AdmissibleBandwidthBelowFreeBandwidth) {
  workload::TaskSet ts;
  ts.add(tests::predefined_task(0, 50, 15, 50));
  const auto build = sched::build_time_slot_table(ts);
  ASSERT_TRUE(build.feasible);
  const auto m = sched::analyze_table(build.table);
  const double admissible = sched::admissible_bandwidth(build.table);
  EXPECT_GT(admissible, 0.0);
  EXPECT_LE(admissible, m.bandwidth + 1e-9);
}

// ----------------------------------------------------------------- regmap

TEST(RegMap, ResetStateAndReadOnlyRegisters) {
  core::RegisterFile regs;
  EXPECT_EQ(regs.read(core::reg::kId), core::reg::kMagic);
  regs.write(core::reg::kId, 0xdeadbeef);      // ignored: RO
  regs.write(core::reg::kStatus, 0xffffffff);  // ignored: RO
  EXPECT_EQ(regs.read(core::reg::kId), core::reg::kMagic);
  EXPECT_EQ(regs.read(core::reg::kStatus), 0u);
  EXPECT_EQ(regs.read(0x7777), 0u);  // unmapped reads as zero
  EXPECT_FALSE(regs.enabled());
  regs.write(core::reg::kCtrl, core::reg::kCtrlEnable);
  EXPECT_TRUE(regs.enabled());
}

TEST(RegMap, ProgramDecodeRoundTrip) {
  workload::TaskSet ts;
  ts.add(tests::predefined_task(3, 100, 10, 100, 5));
  ts.add(tests::predefined_task(7, 200, 20, 200));
  const auto build = sched::build_time_slot_table(ts);
  ASSERT_TRUE(build.feasible);
  const std::vector<sched::ServerParams> servers = {{20, 5}, {50, 10}};

  core::RegisterFile regs;
  core::program_registers(regs, ts, build.table, servers);
  regs.write(core::reg::kCtrl, core::reg::kCtrlEnable);
  const auto decoded = core::decode_registers(regs);

  ASSERT_TRUE(decoded.valid) << decoded.error;
  EXPECT_TRUE(regs.read(core::reg::kStatus) & core::reg::kStatusRunning);
  ASSERT_EQ(decoded.servers.size(), 2u);
  EXPECT_EQ(decoded.servers[0].pi, 20u);
  EXPECT_EQ(decoded.servers[1].theta, 10u);
  ASSERT_EQ(decoded.predefined.size(), 2u);
  EXPECT_EQ(decoded.predefined.by_id(TaskId{3}).offset, 5u);
  EXPECT_EQ(decoded.predefined.by_id(TaskId{7}).wcet, 20u);
  ASSERT_EQ(decoded.table.hyperperiod(), build.table.hyperperiod());
  for (Slot s = 0; s < build.table.hyperperiod(); ++s)
    EXPECT_EQ(decoded.table.occupant(s), build.table.occupant(s)) << s;
}

TEST(RegMap, MalformedConfigsFlagStatusError) {
  // Zero-period task.
  {
    core::RegisterFile regs;
    regs.write(core::reg::kNumVms, 1);
    regs.write(core::reg::kServerBase, 10);
    regs.write(core::reg::kServerBase + 1, 2);
    regs.write(core::reg::kNumTasks, 1);
    regs.write(core::reg::kTableLen, 4);
    // TASK[0] left zeroed => period == 0.
    const auto decoded = core::decode_registers(regs);
    EXPECT_FALSE(decoded.valid);
    EXPECT_TRUE(regs.read(core::reg::kStatus) &
                core::reg::kStatusConfigError);
  }
  // Server with Theta > Pi.
  {
    core::RegisterFile regs;
    regs.write(core::reg::kNumVms, 1);
    regs.write(core::reg::kServerBase, 4);
    regs.write(core::reg::kServerBase + 1, 9);
    regs.write(core::reg::kTableLen, 4);
    const auto decoded = core::decode_registers(regs);
    EXPECT_FALSE(decoded.valid);
    EXPECT_NE(decoded.error.find("SERVER"), std::string::npos);
  }
  // Table slot referencing an unloaded task.
  {
    core::RegisterFile regs;
    regs.write(core::reg::kNumVms, 1);
    regs.write(core::reg::kServerBase, 10);
    regs.write(core::reg::kServerBase + 1, 2);
    regs.write(core::reg::kNumTasks, 0);
    regs.write(core::reg::kTableLen, 2);
    regs.write(core::reg::kTableBase, 42);  // unknown task id
    const auto decoded = core::decode_registers(regs);
    EXPECT_FALSE(decoded.valid);
    EXPECT_NE(decoded.error.find("TABLE"), std::string::npos);
  }
}

TEST(RegMap, DecodedTableDrivesPchannelIdentically) {
  // End-to-end: firmware programs registers, hardware decodes, and the
  // decoded configuration runs the P-channel exactly like the original.
  workload::TaskSet ts;
  ts.add(tests::predefined_task(0, 10, 3, 10));
  const auto build = sched::build_time_slot_table(ts);
  ASSERT_TRUE(build.feasible);

  core::RegisterFile regs;
  core::program_registers(regs, ts, build.table, {{10, 2}});
  const auto decoded = core::decode_registers(regs);
  ASSERT_TRUE(decoded.valid) << decoded.error;

  core::PChannel original(ts, build.table);
  core::PChannel restored(decoded.predefined, decoded.table);
  for (Slot s = 0; s < 100; ++s) {
    bool u1 = false, u2 = false;
    const auto c1 = original.execute_slot(s, u1);
    const auto c2 = restored.execute_slot(s, u2);
    EXPECT_EQ(u1, u2) << "slot " << s;
    EXPECT_EQ(c1.has_value(), c2.has_value()) << "slot " << s;
  }
  EXPECT_EQ(original.jobs_completed(), restored.jobs_completed());
}

}  // namespace
}  // namespace ioguard

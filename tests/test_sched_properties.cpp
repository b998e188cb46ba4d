// Property-based tests for the Sec. IV analysis, using parameterized sweeps:
//  * sbf(sigma, t) equals a brute-force sliding-window minimum and satisfies
//    the structural identities of Eqs. (1)-(2);
//  * sbf(Gamma, t) (Eq. 8) equals the supply of the Shin & Lee worst-case
//    pattern;
//  * Theorems 2/4 are sound and agree with the exhaustive Theorems 1/3;
//  * admitted task sets never miss deadlines in simulation (empirical
//    soundness of the whole two-layer analysis).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "sched/admission.hpp"
#include "sched/edf_ref.hpp"
#include "sched/sbf.hpp"
#include "sched/server_design.hpp"
#include "sched/slot_table.hpp"
#include "task_builders.hpp"
#include "workload/arrivals.hpp"

namespace ioguard::sched {
namespace {

using workload::TaskSet;

TimeSlotTable random_table(Rng& rng, Slot h, double busy_frac) {
  TimeSlotTable t(h);
  for (Slot s = 0; s < h; ++s)
    if (rng.bernoulli(busy_frac)) t.reserve(s, TaskId{0});
  if (t.free_slots() == 0) t.release(0);  // keep at least one free slot
  return t;
}

/// Brute-force sbf: minimum free slots over every window of length t
/// starting anywhere in one hyper-period (the table repeats).
Slot brute_sbf(const TimeSlotTable& table, Slot t) {
  const Slot h = table.hyperperiod();
  Slot best = kNeverSlot;
  for (Slot start = 0; start < h; ++start) {
    Slot got = 0;
    for (Slot i = 0; i < t; ++i)
      if (table.is_free((start + i) % h)) ++got;
    best = std::min(best, got);
  }
  return best;
}

// -------------------------------------------------- sbf(sigma, t) properties

class TableSupplyProperty : public ::testing::TestWithParam<int> {};

TEST_P(TableSupplyProperty, MatchesBruteForceAndStructuralIdentities) {
  Rng rng(1000 + GetParam());
  const Slot h = 5 + rng.uniform_int(0, 45);
  const auto table = random_table(rng, h, rng.uniform(0.2, 0.8));
  const TableSupply supply(table);
  const Slot f = table.free_slots();

  Slot prev = 0;
  for (Slot t = 0; t <= 3 * h; ++t) {
    const Slot got = supply.sbf(t);
    // Eq. (1)/(2) against brute force within one period...
    if (t < h) {
      EXPECT_EQ(got, brute_sbf(table, t)) << "t=" << t;
    }
    // ...and the periodic extension identity for larger t.
    EXPECT_EQ(supply.sbf(t + h), got + f) << "t=" << t;
    // Supply is monotone and 1-Lipschitz (one slot per slot at most).
    EXPECT_GE(got, prev);
    EXPECT_LE(got - prev, 1u);
    EXPECT_LE(got, t);
    prev = got;
  }
  // A full period always supplies exactly F.
  EXPECT_EQ(supply.sbf(h), f);
}

INSTANTIATE_TEST_SUITE_P(RandomTables, TableSupplyProperty,
                         ::testing::Range(0, 25));

// ------------------------------------------------- sbf(Gamma, t) properties

class ServerSupplyProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ServerSupplyProperty, MatchesWorstCasePattern) {
  const Slot pi = static_cast<Slot>(std::get<0>(GetParam()));
  const Slot theta = static_cast<Slot>(std::get<1>(GetParam()));
  if (theta > pi) GTEST_SKIP();
  const ServerParams g{pi, theta};

  // Shin & Lee worst case: the budget arrives at the start of period 0 and
  // as late as possible in every later period, leaving a 2(Pi-Theta)
  // blackout. The worst window starts right after the period-0 budget.
  auto pattern = [&](Slot s) {
    if (s < theta) return true;       // period 0: early budget
    if (s < pi) return false;        // rest of period 0: nothing
    return (s % pi) >= pi - theta;   // later periods: late budget
  };
  for (Slot t = 0; t <= 4 * pi; ++t) {
    Slot brute = 0;
    for (Slot i = 0; i < t; ++i)
      if (pattern(theta + i)) ++brute;
    EXPECT_EQ(sbf_server(g, t), brute) << "Pi=" << pi << " Theta=" << theta
                                       << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PiThetaGrid, ServerSupplyProperty,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 13),
                       ::testing::Values(1, 2, 3, 5, 8)));

// ----------------------------------------------------- dbf(tau, t) property

class SporadicDemandProperty : public ::testing::TestWithParam<int> {};

TEST_P(SporadicDemandProperty, MatchesJobCountingBruteForce) {
  Rng rng(500 + GetParam());
  const Slot period = 2 + rng.uniform_int(0, 30);
  const Slot deadline = 1 + rng.uniform_int(0, period - 1);
  const Slot wcet = 1 + rng.uniform_int(0, deadline - 1 ? deadline - 1 : 0);

  for (Slot t = 0; t <= 5 * period; ++t) {
    // Brute force: jobs released at 0, T, 2T, ... with deadline r + D; count
    // those with release >= 0 and deadline <= t.
    Slot demand = 0;
    for (Slot r = 0; r + deadline <= t; r += period) demand += wcet;
    EXPECT_EQ(dbf_sporadic(period, wcet, deadline, t), demand)
        << "T=" << period << " C=" << wcet << " D=" << deadline << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSporadic, SporadicDemandProperty,
                         ::testing::Range(0, 30));

// -------------------------------------- Theorem 2 vs exhaustive Theorem 1

class GlobalAdmissionProperty : public ::testing::TestWithParam<int> {};

TEST_P(GlobalAdmissionProperty, Theorem2NeverDisagreesWithTheorem1) {
  Rng rng(9000 + GetParam());
  const Slot h = 8 + rng.uniform_int(0, 24);
  const auto table = random_table(rng, h, rng.uniform(0.1, 0.6));
  const TableSupply supply(table);

  std::vector<ServerParams> servers;
  const std::size_t n = 1 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    const Slot pi = 2 + rng.uniform_int(0, 14);
    const Slot theta = 1 + rng.uniform_int(0, pi - 1);
    servers.push_back({pi, theta});
  }

  double bw = 0.0;
  for (const auto& s : servers) bw += s.bandwidth();
  const bool has_slack = supply.bandwidth() - bw > 1e-9;

  const auto t2 = theorem2_check(supply, servers);
  const auto t1 = theorem1_exhaustive(supply, servers);
  if (has_slack) {
    // With positive slack Theorem 2 is exact w.r.t. Theorem 1.
    EXPECT_EQ(static_cast<bool>(t2), static_cast<bool>(t1));
  } else {
    // Without slack Theorem 2 conservatively rejects.
    EXPECT_FALSE(t2);
  }
  // Soundness either way: if T2 accepts, T1 must accept.
  if (t2) {
    EXPECT_TRUE(static_cast<bool>(t1));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, GlobalAdmissionProperty,
                         ::testing::Range(0, 40));

// ------------------------------------------ Theorem 4 empirical soundness

class VmAdmissionProperty : public ::testing::TestWithParam<int> {};

TEST_P(VmAdmissionProperty, AdmittedTaskSetsNeverMissOnWorstCaseSupply) {
  Rng rng(7100 + GetParam());
  const Slot pi = 4 + rng.uniform_int(0, 12);
  const Slot theta = 1 + rng.uniform_int(0, pi - 1);
  const ServerParams g{pi, theta};

  TaskSet ts;
  const std::size_t n = 1 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    workload::IoTaskSpec s;
    s.id = TaskId{static_cast<std::uint32_t>(i)};
    s.vm = VmId{0};
    s.device = DeviceId{0};
    s.name = tests::numbered("x", i);
    s.period = 20 + rng.uniform_int(0, 180);
    s.deadline = s.period - rng.uniform_int(0, s.period / 4);
    s.wcet = 1 + rng.uniform_int(0, std::max<Slot>(1, s.deadline / 8) - 1);
    s.payload_bytes = 8;
    ts.add(s);
  }

  if (!theorem4_check(g, ts)) GTEST_SKIP() << "not admitted";

  // Simulate P-EDF on the worst-case periodic-resource supply with strictly
  // periodic (densest sporadic) releases and full WCET demand.
  workload::ArrivalConfig cfg;
  cfg.horizon = 40 * ts.hyperperiod() < 400000 ? 4 * ts.hyperperiod() : 100000;
  cfg.jitter_frac = 0.0;
  cfg.exec_frac_lo = cfg.exec_frac_hi = 1.0;
  const auto trace = workload::generate_trace(ts, cfg);
  auto worst_supply = [pi, theta](Slot s) {
    if (s < theta) return true;
    if (s < pi) return false;
    return (s % pi) >= pi - theta;
  };
  const auto r = simulate_edf(trace, worst_supply, cfg.horizon);
  EXPECT_EQ(r.misses, 0u) << "Pi=" << pi << " Theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(RandomVms, VmAdmissionProperty,
                         ::testing::Range(0, 50));

// ---------------------------------- end-to-end: design + simulate a device

class DesignSimProperty : public ::testing::TestWithParam<int> {};

TEST_P(DesignSimProperty, DesignedServersDeliverTheirBudgets) {
  Rng rng(31000 + GetParam());
  // Random table with >= 40% free slots.
  const Slot h = 20 + rng.uniform_int(0, 30);
  const auto table = random_table(rng, h, 0.3);
  const TableSupply supply(table);

  // Two VMs with light task sets.
  std::vector<TaskSet> vms(2);
  for (std::size_t v = 0; v < 2; ++v) {
    workload::IoTaskSpec s;
    s.id = TaskId{static_cast<std::uint32_t>(v)};
    s.vm = VmId{static_cast<std::uint32_t>(v)};
    s.device = DeviceId{0};
    s.name = "vm" + std::to_string(v);
    s.period = 100 + rng.uniform_int(0, 100);
    s.deadline = s.period;
    s.wcet = 1 + rng.uniform_int(0, 5);
    s.payload_bytes = 8;
    vms[v].add(s);
  }

  const auto design = design_system(supply, vms);
  if (!design.feasible) GTEST_SKIP() << design.reason;

  // Simulate the union of both VMs' tasks under EDF on the table's free
  // slots: the two-layer guarantee implies the flat schedule also fits.
  TaskSet merged;
  for (const auto& vm : vms)
    for (const auto& t : vm.tasks()) merged.add(t);
  workload::ArrivalConfig cfg;
  cfg.horizon = 50 * h;
  cfg.jitter_frac = 0.0;
  cfg.exec_frac_lo = cfg.exec_frac_hi = 1.0;
  const auto trace = workload::generate_trace(merged, cfg);
  const auto r = simulate_edf(
      trace, [&](Slot s) { return table.is_free_abs(s); }, cfg.horizon);
  EXPECT_EQ(r.misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomDesigns, DesignSimProperty,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace ioguard::sched

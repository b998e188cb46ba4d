// Busy-period macro-stepping (DESIGN.md §15): every bulk advance path must
// equal the per-slot tick it replaces. Component checks pit
// VirtManager::advance, FifoController::advance and the P-channel's sigma*
// helpers against slot-by-slot references under seeded random inputs; the
// runner matrix compares whole trials, event mode against --stepped, on
// summary and Prometheus bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "core/event_trace.hpp"
#include "core/pchannel.hpp"
#include "core/vmanager.hpp"
#include "iodev/fifo_controller.hpp"
#include "sched/sbf.hpp"
#include "sched/slot_table.hpp"
#include "system/runner.hpp"
#include "task_builders.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"

namespace ioguard {
namespace {

using core::GschedPolicy;
using iodev::Completion;

void expect_same_completions(const std::vector<Completion>& bulk,
                             const std::vector<Completion>& ticked,
                             const std::string& where) {
  ASSERT_EQ(bulk.size(), ticked.size()) << where;
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    const Completion& a = bulk[i];
    const Completion& b = ticked[i];
    EXPECT_EQ(std::tie(a.job.id, a.job.task, a.job.vm, a.job.device),
              std::tie(b.job.id, b.job.task, b.job.vm, b.job.device))
        << where << " completion " << i;
    EXPECT_EQ(std::tie(a.job.release, a.job.absolute_deadline, a.job.wcet,
                       a.job.payload_bytes, a.enqueued_at, a.completed_at),
              std::tie(b.job.release, b.job.absolute_deadline, b.job.wcet,
                       b.job.payload_bytes, b.enqueued_at, b.completed_at))
        << where << " completion " << i;
  }
}

/// Random raw table of `h` slots: reserved slots belong to task 0, with
/// reservation probability `p` (0 and 1 give the all-free and all-reserved
/// extremes).
sched::TimeSlotTable random_table(Rng& rng, Slot h, double p) {
  std::vector<std::uint32_t> slots(h);
  for (auto& s : slots)
    s = rng.bernoulli(p) ? 0u : sched::TimeSlotTable::kFree;
  return sched::TimeSlotTable::from_slots(std::move(slots));
}

/// The one task a random_table reserves for, released at `offset` once per
/// hyperperiod with a demand of every reserved slot.
workload::TaskSet table_task(const sched::TimeSlotTable& table, Slot offset) {
  workload::TaskSet ts;
  const Slot reserved = table.hyperperiod() - table.free_slots();
  if (reserved > 0)
    ts.add(tests::predefined_task(0, table.hyperperiod(), reserved,
                                  table.hyperperiod(), offset));
  return ts;
}

// ------------------------------------------------------- sigma* helpers

TEST(PChannelRuns, FreeSlotHelpersMatchBruteForce) {
  Rng rng(101);
  // The all-free 1-slot table and an all-reserved (F = 0) table first, then
  // random ones with the all-free and all-reserved extremes mixed in.
  std::vector<sched::TimeSlotTable> tables{
      sched::TimeSlotTable(1), sched::TimeSlotTable::from_slots({0, 0, 0})};
  for (int round = 0; round < 60; ++round) {
    const Slot h = rng.uniform_int(1, 40);
    const double p = round % 10 == 0 ? 0.0 : round % 10 == 1 ? 1.0
                                                             : rng.uniform();
    tables.push_back(random_table(rng, h, p));
  }
  for (std::size_t round = 0; round < tables.size(); ++round) {
    const auto& table = tables[round];
    const Slot h = table.hyperperiod();
    const core::PChannel pch(table_task(table, 0), table);
    const core::FreeSlotIndex index(table);
    const Slot span = 3 * h + 2;
    Slot free_count = 0;
    std::vector<Slot> free_at;  // absolute free slots in [0, span)
    for (Slot t = 0; t < span; ++t) {
      EXPECT_EQ(index.free_before(t), free_count) << "round " << round;
      if (table.is_free_abs(t)) {
        free_at.push_back(t);
        ++free_count;
      }
      Slot next_reserved = kNeverSlot;
      for (Slot u = t; u < t + h + 1; ++u)
        if (!table.is_free_abs(u)) {
          next_reserved = u;
          break;
        }
      EXPECT_EQ(pch.next_reserved_slot(t), next_reserved)
          << "round " << round << " t " << t;
    }
    for (Slot i = 0; i < free_at.size(); ++i)
      EXPECT_EQ(index.free_slot(i), free_at[i]) << "round " << round;
    if (table.free_slots() == 0) {
      EXPECT_EQ(index.free_slot(0), kNeverSlot) << "round " << round;
      EXPECT_EQ(index.free_slot(7), kNeverSlot) << "round " << round;
    }
  }
}

TEST(PChannelRuns, ExecuteReservedMatchesExecuteSlot) {
  Rng rng(202);
  for (int round = 0; round < 120; ++round) {
    const Slot h = rng.uniform_int(1, 40);
    const double p = round % 10 == 0 ? 1.0 : rng.uniform();
    const auto table = random_table(rng, h, p);
    // A nonzero offset exercises the startup transient (wasted slots).
    const workload::TaskSet ts = table_task(table, rng.uniform_int(0, h - 1));
    core::PChannel ticked(ts, table);
    core::PChannel bulk(ts, table);
    std::vector<Completion> want, got;
    Slot busy = 0, wasted = 0;
    const Slot horizon = 8 * h + 3;
    // A fresh channel's first call may start mid-hyperperiod or past it.
    Slot s = 0;
    switch (round % 3) {
      case 1: s = rng.uniform_int(0, h - 1); break;
      case 2: s = rng.uniform_int(h, 2 * h); break;
      default: break;
    }
    // The reference ticks exactly the slots the bulk calls cover; between
    // calls, a gap skips nothing, only free slots, or more than one
    // hyperperiod, or the next call starts behind the last one's end.
    while (s < horizon) {
      const Slot to = std::min<Slot>(horizon, s + rng.uniform_int(1, 2 * h));
      for (Slot t = s; t < to; ++t) {
        bool used = false;
        if (auto done = ticked.execute_slot(t, used)) want.push_back(*done);
      }
      bulk.execute_reserved(s, to, got, busy, wasted);
      s = to;
      switch (rng.uniform_int(0, 4)) {
        case 1:
          for (Slot n = rng.uniform_int(1, h); n > 0 && table.is_free_abs(s);
               --n)
            ++s;
          break;
        case 2: s += rng.uniform_int(h + 1, 3 * h); break;
        case 3: s -= rng.uniform_int(0, std::min<Slot>(s, 2 * h)); break;
        default: break;
      }
    }
    const std::string where = "round " + std::to_string(round);
    expect_same_completions(got, want, where);
    EXPECT_EQ(busy, ticked.busy_slots()) << where;
    EXPECT_EQ(bulk.busy_slots(), ticked.busy_slots()) << where;
    EXPECT_EQ(wasted, ticked.wasted_slots()) << where;
    EXPECT_EQ(bulk.wasted_slots(), ticked.wasted_slots()) << where;
    EXPECT_EQ(bulk.jobs_completed(), ticked.jobs_completed()) << where;
  }
}

TEST(PChannelRuns, TableSupplyMatchesBruteForceWindows) {
  Rng rng(303);
  for (int round = 0; round < 60; ++round) {
    const Slot h = rng.uniform_int(1, 30);
    const double p = round % 10 == 0 ? 0.0 : round % 10 == 1 ? 1.0
                                                             : rng.uniform();
    const auto table = random_table(rng, h, p);
    const sched::TableSupply supply(table);
    for (Slot t = 0; t <= 2 * h + 3; ++t) {
      Slot least = kNeverSlot;
      for (Slot s = 0; s < h; ++s) {
        Slot got = 0;
        for (Slot u = s; u < s + t; ++u) got += table.is_free_abs(u) ? 1 : 0;
        least = std::min(least, got);
      }
      EXPECT_EQ(supply.sbf(t), least) << "round " << round << " t " << t;
    }
  }
}

// ----------------------------------------------------- virtualization manager

struct ManagerCase {
  workload::TaskSet predefined;
  sched::TimeSlotTable table{1};
  std::vector<sched::ServerParams> servers;
  core::VManagerConfig config;
};

ManagerCase random_manager(Rng& rng, GschedPolicy policy) {
  ManagerCase c;
  constexpr Slot kPeriods[] = {8, 12, 16, 24};
  for (;;) {
    workload::TaskSet ts;
    const auto n = rng.uniform_int(0, 3);
    for (std::uint32_t i = 0; i < n; ++i) {
      const Slot t = kPeriods[rng.index(std::size(kPeriods))];
      ts.add(tests::predefined_task(1000 + i, t, rng.uniform_int(1, t / 4), t,
                                    rng.uniform_int(0, t - 1)));
    }
    auto build = sched::build_time_slot_table(ts);
    if (!build.feasible) continue;
    c.predefined = ts;
    c.table = build.table;
    break;
  }
  c.config.num_vms = rng.uniform_int(1, 6);
  c.config.pool_capacity = rng.bernoulli(0.3) ? 2 : 8;
  c.config.policy = policy;
  for (std::size_t v = 0; v < c.config.num_vms; ++v) {
    if (rng.bernoulli(0.2)) {
      c.servers.push_back({1, 0});  // a task-less VM's server
      continue;
    }
    const Slot pi = rng.uniform_int(2, 30);
    c.servers.push_back({pi, rng.uniform_int(0, pi)});
  }
  return c;
}

core::VirtManager make(const ManagerCase& c) {
  return core::VirtManager(iodev::device_spec(iodev::DeviceKind::kSpi),
                           c.predefined, c.table, c.servers, c.config);
}

struct Submission {
  Slot at;
  workload::Job job;
};

std::vector<Submission> random_submissions(Rng& rng, std::size_t num_vms,
                                           Slot horizon, double rate) {
  std::vector<Submission> out;
  std::uint32_t id = 0;
  for (Slot s = 0; s < horizon; ++s) {
    while (rng.bernoulli(rate)) {
      workload::Job j;
      j.id = JobId{id};
      j.task = TaskId{id % 7};
      j.vm = VmId{static_cast<std::uint32_t>(rng.index(num_vms))};
      j.device = DeviceId{0};
      j.release = s;
      j.absolute_deadline = s + rng.uniform_int(4, 200);
      j.wcet = rng.uniform_int(1, 12);
      j.payload_bytes = static_cast<std::uint32_t>(rng.uniform_int(1, 512));
      out.push_back({s, j});
      ++id;
    }
  }
  return out;
}

const auto kPolicies =
    ::testing::Values(GschedPolicy::kServerEdf, GschedPolicy::kJobEdf,
                      GschedPolicy::kGlobalEdfNoBudget);

std::string policy_name(GschedPolicy policy) {
  switch (policy) {
    case GschedPolicy::kServerEdf: return "ServerEdf";
    case GschedPolicy::kJobEdf: return "JobEdf";
    case GschedPolicy::kGlobalEdfNoBudget: return "GlobalEdfNoBudget";
  }
  return "Unknown";
}

class ManagerAdvance : public ::testing::TestWithParam<GschedPolicy> {};

TEST_P(ManagerAdvance, MatchesRepeatedTickSlot) {
  Rng rng(404 + static_cast<int>(GetParam()));
  for (int round = 0; round < 40; ++round) {
    const ManagerCase c = random_manager(rng, GetParam());
    const Slot horizon = rng.uniform_int(50, 600);
    const auto subs = random_submissions(rng, c.config.num_vms, horizon,
                                         rng.uniform(0.02, 0.4));
    core::VirtManager ticked = make(c);
    core::VirtManager bulk = make(c);
    std::vector<Completion> want, got;

    std::size_t next = 0;
    for (Slot s = 0; s < horizon; ++s) {
      for (; next < subs.size() && subs[next].at == s; ++next)
        (void)ticked.submit(subs[next].job, s);
      ticked.tick_slot(s, want);
    }
    // Advance between submission slots, split at extra random cut points.
    next = 0;
    for (Slot s = 0; s < horizon;) {
      for (; next < subs.size() && subs[next].at == s; ++next)
        (void)bulk.submit(subs[next].job, s);
      Slot to = next < subs.size() ? subs[next].at : horizon;
      if (to > s + 1 && rng.bernoulli(0.3)) to = rng.uniform_int(s + 1, to);
      bulk.advance(s, to, got);
      s = to;
    }

    const std::string where = "round " + std::to_string(round);
    expect_same_completions(got, want, where);
    EXPECT_EQ(bulk.busy_slots(), ticked.busy_slots()) << where;
    EXPECT_EQ(bulk.profile_stall_slots(), ticked.profile_stall_slots())
        << where;
    EXPECT_EQ(bulk.profile_quiescent_slots(),
              ticked.profile_quiescent_slots())
        << where;
    EXPECT_EQ(bulk.busy_slots() + bulk.profile_stall_slots() +
                  bulk.profile_quiescent_slots(),
              horizon)
        << where;
    EXPECT_EQ(bulk.runtime_jobs_completed(), ticked.runtime_jobs_completed())
        << where;
    EXPECT_EQ(bulk.dropped_jobs(), ticked.dropped_jobs()) << where;
    EXPECT_EQ(bulk.pchannel().busy_slots(), ticked.pchannel().busy_slots())
        << where;
    EXPECT_EQ(bulk.pchannel().wasted_slots(), ticked.pchannel().wasted_slots())
        << where;
    EXPECT_EQ(bulk.response_translator().translations(),
              ticked.response_translator().translations())
        << where;
    for (std::size_t v = 0; v < c.config.num_vms; ++v) {
      EXPECT_EQ(bulk.gsched().granted(v), ticked.gsched().granted(v))
          << where << " vm " << v;
      EXPECT_EQ(bulk.gsched().slack_granted(v),
                ticked.gsched().slack_granted(v))
          << where << " vm " << v;
      EXPECT_EQ(bulk.gsched().budget(v), ticked.gsched().budget(v))
          << where << " vm " << v;
      EXPECT_EQ(bulk.pool(v).backlog(), ticked.pool(v).backlog())
          << where << " vm " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ManagerAdvance, kPolicies,
                         [](const auto& info) {
                           return policy_name(info.param);
                         });

// ---------------------------------------------------------- FIFO controller

TEST(FifoAdvance, MatchesRepeatedTickSlot) {
  Rng rng(505);
  for (int round = 0; round < 60; ++round) {
    const std::size_t devices = rng.uniform_int(1, 4);
    const std::size_t capacity = rng.bernoulli(0.3) ? 2 : 16;
    const Slot overhead = rng.uniform_int(0, 2);
    const Slot horizon = rng.uniform_int(20, 500);
    std::vector<iodev::FifoController> ticked, bulk;
    for (std::size_t d = 0; d < devices; ++d) {
      ticked.emplace_back(capacity, overhead);
      bulk.emplace_back(capacity, overhead);
    }
    std::vector<Submission> subs =
        random_submissions(rng, 1, horizon, rng.uniform(0.02, 0.5));
    for (auto& s : subs)
      s.job.device = DeviceId{static_cast<std::uint32_t>(rng.index(devices))};

    std::vector<Completion> want, got;
    std::size_t next = 0;
    for (Slot s = 0; s < horizon; ++s) {
      for (; next < subs.size() && subs[next].at == s; ++next)
        (void)ticked[subs[next].job.device.value].enqueue(subs[next].job, s);
      for (auto& f : ticked)
        if (auto done = f.tick_slot(s)) want.push_back(*done);
    }
    iodev::CompletionStreams streams(devices);
    next = 0;
    for (Slot s = 0; s < horizon;) {
      for (; next < subs.size() && subs[next].at == s; ++next)
        (void)bulk[subs[next].job.device.value].enqueue(subs[next].job, s);
      Slot to = next < subs.size() ? subs[next].at : horizon;
      if (to > s + 1 && rng.bernoulli(0.3)) to = rng.uniform_int(s + 1, to);
      iodev::advance_all(bulk, s, to, streams, got);
      s = to;
    }

    const std::string where = "round " + std::to_string(round);
    expect_same_completions(got, want, where);
    for (std::size_t d = 0; d < devices; ++d) {
      EXPECT_EQ(bulk[d].busy_slots(), ticked[d].busy_slots()) << where;
      EXPECT_EQ(bulk[d].profile_stall_slots(), ticked[d].profile_stall_slots())
          << where;
      EXPECT_EQ(bulk[d].profile_quiescent_slots(),
                ticked[d].profile_quiescent_slots())
          << where;
      EXPECT_EQ(bulk[d].jobs_completed(), ticked[d].jobs_completed()) << where;
      EXPECT_EQ(bulk[d].bytes_completed(), ticked[d].bytes_completed())
          << where;
      EXPECT_EQ(bulk[d].queue_length(), ticked[d].queue_length()) << where;
      EXPECT_EQ(bulk[d].rejected(), ticked[d].rejected()) << where;
    }
  }
}

// ------------------------------------------------------------ runner matrix

std::string trial_bytes(sys::TrialConfig tc) {
  telemetry::MetricsRegistry registry;
  tc.metrics = &registry;
  std::ostringstream os;
  sys::write_trial_summary_json(os, tc, sys::run_trial(tc));
  telemetry::write_prometheus(os, registry);
  return os.str();
}

sys::TrialConfig matrix_trial(sys::SystemKind kind, GschedPolicy policy,
                              std::size_t vms, double util,
                              double preload = 0.5) {
  sys::TrialConfig tc;
  tc.kind = kind;
  tc.gsched_policy = policy;
  tc.workload.num_vms = vms;
  tc.workload.target_utilization = util;
  tc.workload.preload_fraction =
      kind == sys::SystemKind::kIoGuard ? preload : 0.0;
  tc.min_jobs_per_task = 4;
  tc.trial_seed = 11 + vms;
  // Profile, stage and response-time collection do not force the lock-step
  // path, so the bulk attribution lands in the compared bytes.
  tc.collect_profile = true;
  tc.collect_stage_latencies = true;
  tc.collect_response_times = true;
  return tc;
}

void expect_modes_agree(sys::TrialConfig tc, const std::string& where) {
  tc.stepped = false;
  const std::string event = trial_bytes(tc);
  tc.stepped = true;
  EXPECT_EQ(event, trial_bytes(tc)) << where;
}

const auto kSystems =
    ::testing::Values(sys::SystemKind::kLegacy, sys::SystemKind::kRtXen,
                      sys::SystemKind::kBlueVisor, sys::SystemKind::kIoGuard);

std::string system_name(sys::SystemKind kind) {
  switch (kind) {
    case sys::SystemKind::kLegacy: return "Legacy";
    case sys::SystemKind::kRtXen: return "RtXen";
    case sys::SystemKind::kBlueVisor: return "BlueVisor";
    case sys::SystemKind::kIoGuard: return "IoGuard";
  }
  return "Unknown";
}

void expect_matrix_cell(sys::SystemKind kind, GschedPolicy policy,
                        std::size_t vms, double preload) {
  for (const double util : {0.05, 0.4, 0.8, 0.95, 1.2}) {
    expect_modes_agree(matrix_trial(kind, policy, vms, util, preload),
                       std::string(sys::to_string(kind)) + " vms " +
                           std::to_string(vms) + " util " +
                           std::to_string(util) + " preload " +
                           std::to_string(preload));
  }
}

const auto kMatrixVms = ::testing::Values(std::size_t{1}, std::size_t{2},
                                          std::size_t{4}, std::size_t{8});

// Every (system, policy, VM count) cell is its own case, so a divergence
// names the configuration that produced it.
class RunnerMatrix
    : public ::testing::TestWithParam<
          std::tuple<sys::SystemKind, GschedPolicy, std::size_t>> {};

TEST_P(RunnerMatrix, EventMatchesSteppedOnSummaryAndPrometheusBytes) {
  const auto [kind, policy, vms] = GetParam();
  expect_matrix_cell(kind, policy, vms, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    SystemsPoliciesVms, RunnerMatrix,
    ::testing::Combine(kSystems, kPolicies, kMatrixVms),
    [](const auto& info) {
      return system_name(std::get<0>(info.param)) + "_" +
             policy_name(std::get<1>(info.param)) + "_vms" +
             std::to_string(std::get<2>(info.param));
    });

// The I/O-GUARD cells at Fig. 7's I/O-GUARD-40 and I/O-GUARD-70 preloads,
// which shape sigma*'s runs and free slots differently from 0.5.
class IoGuardPreloadMatrix
    : public ::testing::TestWithParam<
          std::tuple<GschedPolicy, std::size_t, double>> {};

TEST_P(IoGuardPreloadMatrix, EventMatchesSteppedOnSummaryAndPrometheusBytes) {
  const auto [policy, vms, preload] = GetParam();
  expect_matrix_cell(sys::SystemKind::kIoGuard, policy, vms, preload);
}

INSTANTIATE_TEST_SUITE_P(
    Fig7Preloads, IoGuardPreloadMatrix,
    ::testing::Combine(kPolicies, kMatrixVms, ::testing::Values(0.4, 0.7)),
    [](const auto& info) {
      return policy_name(std::get<0>(info.param)) + "_vms" +
             std::to_string(std::get<1>(info.param)) + "_preload" +
             std::to_string(std::lround(100 * std::get<2>(info.param)));
    });

class RunnerEdgeCases
    : public ::testing::TestWithParam<std::tuple<sys::SystemKind,
                                                 GschedPolicy>> {};

TEST_P(RunnerEdgeCases, EventMatchesSteppedWithTinyPools) {
  const auto [kind, policy] = GetParam();
  auto tc = matrix_trial(kind, policy, 4, 0.9);
  tc.cal.pool_capacity = 2;
  tc.cal.device_fifo_capacity = 2;
  expect_modes_agree(tc, "pool_capacity=2");
}

TEST_P(RunnerEdgeCases, EventMatchesSteppedWithMidJobHorizon) {
  const auto [kind, policy] = GetParam();
  // A horizon that cuts jobs off mid-service on every back-end.
  auto tc = matrix_trial(kind, policy, 8, 0.95);
  tc.horizon = 7919;
  expect_modes_agree(tc, "horizon=7919");
}

INSTANTIATE_TEST_SUITE_P(SystemsAndPolicies, RunnerEdgeCases,
                         ::testing::Combine(kSystems, kPolicies),
                         [](const auto& info) {
                           return system_name(std::get<0>(info.param)) + "_" +
                                  policy_name(std::get<1>(info.param));
                         });

class RunnerLockstep : public ::testing::TestWithParam<sys::SystemKind> {};

TEST_P(RunnerLockstep, TapsAndFaultsMatchStepped) {
  // Jitter, faults and (on I/O-GUARD) a trace buffer order their output
  // across devices, so these trials take the lock-step fallback.
  const auto plan = faults::FaultPlan::parse("mixed");
  ASSERT_TRUE(plan.ok());
  const sys::SystemKind kind = GetParam();
  for (const bool faulted : {false, true}) {
    auto tc = matrix_trial(kind, GschedPolicy::kServerEdf, 4, 0.8);
    tc.collect_jitter = true;
    if (faulted) tc.faults = *plan;
    core::EventTrace trace(1 << 14);
    if (kind == sys::SystemKind::kIoGuard) tc.trace = &trace;
    tc.stepped = false;
    const std::string event = trial_bytes(tc);
    trace.clear();
    tc.stepped = true;
    EXPECT_EQ(event, trial_bytes(tc))
        << sys::to_string(kind) << (faulted ? " faulted" : "");
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, RunnerLockstep, kSystems,
                         [](const auto& info) {
                           return system_name(info.param);
                         });

}  // namespace
}  // namespace ioguard

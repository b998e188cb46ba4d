// Tests for the cycle-accurate co-simulation (NoC in the loop), including
// cross-validation against the analytic slot-level runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "faults/fault_plan.hpp"
#include "system/cosim.hpp"
#include "system/runner.hpp"
#include "system/stages.hpp"

namespace ioguard::sys {
namespace {

CosimConfig base_config(SystemKind kind, double util) {
  CosimConfig cfg;
  cfg.trial.kind = kind;
  cfg.trial.workload.num_vms = 4;
  cfg.trial.workload.target_utilization = util;
  cfg.trial.workload.preload_fraction =
      kind == SystemKind::kIoGuard ? 0.4 : 0.0;
  cfg.trial.horizon = 1500;  // 15 ms keeps the cycle loop test-fast
  cfg.trial.trial_seed = 5;
  return cfg;
}

workload::Job io_job(std::uint32_t id, std::uint32_t vm, std::uint32_t device,
                     std::uint32_t payload_bytes) {
  workload::Job j;
  j.id = JobId{id};
  j.vm = VmId{vm};
  j.device = DeviceId{device};
  j.payload_bytes = payload_bytes;
  return j;
}

iodev::Completion completion(const workload::Job& job, Slot completed_at) {
  iodev::Completion done;
  done.job = job;
  done.completed_at = completed_at;
  return done;
}

std::string summary_json(const TrialConfig& cfg, const TrialResult& r) {
  std::ostringstream os;
  write_trial_summary_json(os, cfg, r);
  return os.str();
}

// --- AnalyticTransit: the trial loop's default transit stage -------------

TEST(AnalyticTransit, IdleStageHasNoArrival) {
  const TrialConfig cfg = base_config(SystemKind::kLegacy, 0.5).trial;
  AnalyticTransit t(cfg.cal, cfg.kind, 4, 0.5, cfg.trial_seed);
  EXPECT_FALSE(t.busy());
  EXPECT_EQ(t.next_arrival(0), kNeverSlot);
}

TEST(AnalyticTransit, RequestLatencyIsTheSeedXor111Stream) {
  // The request stream is a TransitModel seeded trial_seed ^ 0x111: the
  // runner's RNG draw order, which every pinned trial result depends on.
  const Calibration cal;
  AnalyticTransit t(cal, SystemKind::kLegacy, 4, 0.5, 9);
  TransitModel twin(cal, SystemKind::kLegacy, 4, 0.5, 9 ^ 0x111);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const Slot now = 10 * i;
    t.send_request(io_job(i, 0, 0, 32), now);
    const Slot arrival = now + twin.sample();
    EXPECT_TRUE(t.busy());
    EXPECT_EQ(t.next_arrival(now), arrival) << "request " << i;
    std::vector<std::uint64_t> got;
    t.deliver_requests(arrival, [&](const workload::Job& j) {
      got.push_back(j.id.value);
    });
    EXPECT_EQ(got, std::vector<std::uint64_t>{i});
    EXPECT_FALSE(t.busy());
  }
}

TEST(AnalyticTransit, DeliversInArrivalThenJobIdOrder) {
  const Calibration cal;
  AnalyticTransit t(cal, SystemKind::kBlueVisor, 8, 0.9, 4);
  TransitModel twin(cal, SystemKind::kBlueVisor, 8, 0.9, 4 ^ 0x111);
  std::vector<std::pair<Slot, std::uint64_t>> expected;
  for (std::uint64_t id = 30; id > 0; --id) {  // sent in descending id
    t.send_request(io_job(id, 1, 2, 64), 5);
    expected.emplace_back(5 + twin.sample(), id);
  }
  std::sort(expected.begin(), expected.end());
  std::vector<std::pair<Slot, std::uint64_t>> got;
  for (Slot now = 5; t.busy(); ++now) {
    t.deliver_requests(now, [&](const workload::Job& j) {
      got.emplace_back(now, j.id.value);
    });
  }
  EXPECT_EQ(got, expected);
}

TEST(AnalyticTransit, HoldsRequestsUntilTheirArrivalSlot) {
  const Calibration cal;
  AnalyticTransit t(cal, SystemKind::kRtXen, 4, 0.5, 2);
  for (std::uint64_t id = 0; id < 20; ++id) {
    t.send_request(io_job(id, 0, 1, 32), 100);
    const Slot arrival = t.next_arrival(100);
    std::size_t early = 0;
    for (Slot now = 100; now < arrival; ++now)
      t.deliver_requests(now, [&](const workload::Job&) { ++early; });
    EXPECT_EQ(early, 0u) << "request " << id;
    t.deliver_requests(arrival, [](const workload::Job&) {});
    EXPECT_FALSE(t.busy());
  }
}

TEST(AnalyticTransit, ResponseReachesTheVmAtOnceOnTheSeedXor222Stream) {
  const Calibration cal;
  AnalyticTransit t(cal, SystemKind::kLegacy, 4, 0.5, 11);
  TransitModel twin(cal, SystemKind::kLegacy, 4, 0.5, 11 ^ 0x222);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const iodev::Completion done = completion(io_job(i, 2, 3, 128), 50 + i);
    std::vector<Slot> finished;
    t.send_response(done, [&](const iodev::Completion& c, Slot at) {
      EXPECT_EQ(c.job.id.value, i);
      finished.push_back(at);
    });
    EXPECT_EQ(finished, std::vector<Slot>{done.completed_at + twin.sample()});
  }
  EXPECT_FALSE(t.busy());  // responses are never held in flight
}

TEST(AnalyticTransit, AdvanceCarriesNothing) {
  const Calibration cal;
  AnalyticTransit t(cal, SystemKind::kLegacy, 4, 0.5, 1);
  t.send_request(io_job(1, 0, 0, 32), 0);
  std::size_t finished = 0;
  t.advance(0, 1000, [&](const iodev::Completion&, Slot) { ++finished; });
  EXPECT_EQ(finished, 0u);
  EXPECT_TRUE(t.busy());  // the request still waits for deliver_requests
}

// --- MeshTransit: the cycle-accurate transit stage ------------------------

TEST(MeshTransit, IdleMeshHasNoArrivalAndIsNotBusy) {
  const MeshTransit t(base_config(SystemKind::kLegacy, 0.5).trial, 0.0);
  EXPECT_FALSE(t.busy());
  EXPECT_EQ(t.next_arrival(7), kNeverSlot);
  EXPECT_EQ(t.packets_delivered(), 0u);
}

TEST(MeshTransit, RequestOnTheMeshMakesTheNextSlotADecisionPoint) {
  MeshTransit t(base_config(SystemKind::kLegacy, 0.5).trial, 0.0);
  t.send_request(io_job(1, 3, 2, 32), 12);
  EXPECT_TRUE(t.busy());
  EXPECT_EQ(t.next_arrival(12), 13u);
  EXPECT_EQ(t.next_arrival(40), 41u);
}

TEST(MeshTransit, RequestArrivesTheSlotAfterItsDeliveryCycle) {
  const TrialConfig cfg = base_config(SystemKind::kLegacy, 0.5).trial;
  const Cycle cps = cfg.cal.cycles_per_slot;
  MeshTransit t(cfg, 0.0);
  const Slot sent = 3;
  t.send_request(io_job(7, 0, 3, 32), sent);
  const auto no_finish = [](const iodev::Completion&, Slot) { FAIL(); };
  Slot now = sent;
  while (t.request_latency_cycles().count() == 0) {
    ASSERT_EQ(t.next_arrival(now), now + 1);
    t.advance(now, now + 1, no_finish);
    ++now;
  }
  const Cycle latency =
      static_cast<Cycle>(t.request_latency_cycles().samples().front());
  const Slot arrival = (sent * cps + latency) / cps + 1;
  EXPECT_EQ(t.next_arrival(now), arrival);
  std::vector<std::uint64_t> got;
  const auto take = [&](const workload::Job& j) { got.push_back(j.id.value); };
  t.deliver_requests(arrival - 1, take);
  EXPECT_TRUE(got.empty());
  t.deliver_requests(arrival, take);
  EXPECT_EQ(got, std::vector<std::uint64_t>{7});
  EXPECT_FALSE(t.busy());
  EXPECT_EQ(t.packets_delivered(), 1u);
}

TEST(MeshTransit, RecordsOneLatencySamplePerRequestPacket) {
  MeshTransit t(base_config(SystemKind::kRtXen, 0.5).trial, 0.0);
  for (std::uint64_t id = 0; id < 12; ++id)
    t.send_request(io_job(id, id % 4, id % 4, 32), 0);
  t.advance(0, 10, [](const iodev::Completion&, Slot) { FAIL(); });
  ASSERT_EQ(t.request_latency_cycles().count(), 12u);
  EXPECT_EQ(t.packets_delivered(), 12u);
  for (double v : t.request_latency_cycles().samples()) EXPECT_GT(v, 0.0);
  std::size_t delivered = 0;
  t.deliver_requests(10, [&](const workload::Job&) { ++delivered; });
  EXPECT_EQ(delivered, 12u);
}

TEST(MeshTransit, ResponseLeavesAtTheStartOfItsCompletionSlot) {
  // A job completed at slot k was served in slot k-1: its response enters
  // the mesh at cycle (k-1)*cps, and a small packet crosses an unloaded
  // mesh well inside one slot, so the job finishes at slot k.
  MeshTransit t(base_config(SystemKind::kLegacy, 0.5).trial, 0.0);
  const iodev::Completion done = completion(io_job(5, 1, 3, 32), 9);
  t.send_response(done, [](const iodev::Completion&, Slot) { FAIL(); });
  EXPECT_TRUE(t.busy());
  std::vector<std::pair<std::uint64_t, Slot>> finished;
  t.advance(8, 12, [&](const iodev::Completion& c, Slot at) {
    finished.emplace_back(c.job.id.value, at);
  });
  EXPECT_EQ(finished, (std::vector<std::pair<std::uint64_t, Slot>>{{5, 9}}));
  EXPECT_FALSE(t.busy());
  EXPECT_EQ(t.request_latency_cycles().count(), 0u);  // responses not counted
  EXPECT_EQ(t.packets_delivered(), 1u);
}

TEST(MeshTransit, LongResponseFinishesAfterItsLastFlitArrives) {
  // 64 KiB at 16 bytes per flit is 4096 flits: several slots of wire time.
  const TrialConfig cfg = base_config(SystemKind::kLegacy, 0.5).trial;
  MeshTransit t(cfg, 0.0);
  t.send_response(completion(io_job(1, 0, 3, 64 * 1024), 2),
                  [](const iodev::Completion&, Slot) { FAIL(); });
  Slot finished_at = kNeverSlot;
  Slot now = 1;
  for (; t.busy() && now < 100; ++now)
    t.advance(now, now + 1, [&](const iodev::Completion&, Slot at) {
      finished_at = at;
    });
  ASSERT_NE(finished_at, kNeverSlot);
  EXPECT_GT(finished_at, Slot{2 + (64 * 1024 / 16) / cfg.cal.cycles_per_slot});
  EXPECT_EQ(finished_at, now);  // reported in the stretch that delivered it
}

TEST(MeshTransit, ResponsesFinishInDeliveryOrderNotSendOrder) {
  MeshTransit t(base_config(SystemKind::kBlueVisor, 0.5).trial, 0.0);
  // Sent first, but 32 KiB of flits; the second is one header + 2 flits
  // on a disjoint route.
  t.send_response(completion(io_job(1, 0, 0, 32 * 1024), 4),
                  [](const iodev::Completion&, Slot) { FAIL(); });
  t.send_response(completion(io_job(2, 3, 3, 32), 4),
                  [](const iodev::Completion&, Slot) { FAIL(); });
  std::vector<std::uint64_t> order;
  Slot now = 3;
  for (; t.busy() && now < 100; ++now)
    t.advance(now, now + 1, [&](const iodev::Completion& c, Slot) {
      order.push_back(c.job.id.value);
    });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 1}));
}

TEST(MeshTransit, OneLongStretchEqualsSlotBySlotStretches) {
  // The event loop advances the mesh between decision points, the stepped
  // loop one slot at a time; the mesh must not tell them apart.
  const TrialConfig cfg = base_config(SystemKind::kLegacy, 0.5).trial;
  MeshTransit once(cfg, 0.0);
  MeshTransit stepped(cfg, 0.0);
  for (MeshTransit* t : {&once, &stepped})
    for (std::uint64_t id = 0; id < 16; ++id)
      t->send_request(io_job(id, id % 4, (id * 3) % 4, 32 + 16 * id), 2);
  const auto none = [](const iodev::Completion&, Slot) { FAIL(); };
  once.advance(2, 12, none);
  for (Slot s = 2; s < 12; ++s) stepped.advance(s, s + 1, none);
  EXPECT_EQ(once.request_latency_cycles().samples(),
            stepped.request_latency_cycles().samples());
  std::vector<std::uint64_t> a, b;
  once.deliver_requests(12, [&](const workload::Job& j) {
    a.push_back(j.id.value);
  });
  stepped.deliver_requests(12, [&](const workload::Job& j) {
    b.push_back(j.id.value);
  });
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(a, b);
}

TEST(MeshTransit, IoGuardTakesTheAnalyticDedicatedLink) {
  const TrialConfig cfg = base_config(SystemKind::kIoGuard, 0.5).trial;
  MeshTransit mesh(cfg, 0.0);
  AnalyticTransit link(cfg.cal, cfg.kind, cfg.workload.num_vms,
                       cfg.workload.target_utilization, cfg.trial_seed);
  for (std::uint64_t id = 0; id < 25; ++id) {
    const Slot now = 4 * id;
    const workload::Job job = io_job(id, id % 4, id % 4, 64);
    mesh.send_request(job, now);
    link.send_request(job, now);
    EXPECT_EQ(mesh.next_arrival(now), link.next_arrival(now));
    std::vector<std::pair<std::uint64_t, Slot>> a, b;
    mesh.send_response(completion(job, now + 2),
                       [&](const iodev::Completion& c, Slot at) {
                         a.emplace_back(c.job.id.value, at);
                       });
    link.send_response(completion(job, now + 2),
                       [&](const iodev::Completion& c, Slot at) {
                         b.emplace_back(c.job.id.value, at);
                       });
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(mesh.busy(), link.busy());
  EXPECT_EQ(mesh.packets_delivered(), 0u);
  EXPECT_EQ(mesh.request_latency_cycles().count(), 0u);
}

TEST(MeshTransit, FloorplanHostsAtMostSixteenVms) {
  TrialConfig cfg = base_config(SystemKind::kLegacy, 0.5).trial;
  cfg.workload.num_vms = 16;
  EXPECT_NO_THROW(MeshTransit(cfg, 0.0));
  cfg.workload.num_vms = 17;
  EXPECT_THROW(MeshTransit(cfg, 0.0), CheckFailure);
}

// --- run_cosim: run_trial's loop with the mesh stage ---------------------

TEST(Cosim, AllSystemsMeetDeadlinesAtModerateLoad) {
  for (SystemKind kind : {SystemKind::kLegacy, SystemKind::kBlueVisor,
                          SystemKind::kIoGuard}) {
    const TrialResult r = run_cosim(base_config(kind, 0.5)).trial;
    EXPECT_GT(r.jobs_counted, 20u) << to_string(kind);
    EXPECT_TRUE(r.success()) << to_string(kind) << " misses="
                             << r.critical_misses;
    EXPECT_EQ(r.dropped, 0u);
  }
}

TEST(Cosim, BaselineRequestsActuallyTraverseTheMesh) {
  auto r = run_cosim(base_config(SystemKind::kLegacy, 0.5));
  EXPECT_GT(r.request_latency_cycles.count(), 20u);
  // Zero-load latency for a few hops is ~10 cycles; contention adds more.
  EXPECT_GE(r.request_latency_cycles.percentile(50), 5.0);
  EXPECT_GT(r.noc_packets_delivered, 2 * r.request_latency_cycles.count() - 10);
}

TEST(Cosim, IoGuardBypassesTheRouters) {
  const auto r = run_cosim(base_config(SystemKind::kIoGuard, 0.5));
  // Dedicated links: no request packets on the mesh at zero background.
  EXPECT_EQ(r.request_latency_cycles.count(), 0u);
  EXPECT_EQ(r.noc_packets_delivered, 0u);
}

TEST(Cosim, BackgroundTrafficLoadsTheMeshAndInflatesLatency) {
  auto quiet = base_config(SystemKind::kLegacy, 0.5);
  auto noisy = quiet;
  noisy.background_rate = 0.02;
  auto rq = run_cosim(quiet);
  auto rn = run_cosim(noisy);
  EXPECT_GT(rn.noc_packets_delivered, rq.noc_packets_delivered);
  ASSERT_GT(rn.request_latency_cycles.count(), 0u);
  EXPECT_GE(rn.request_latency_cycles.percentile(99),
            rq.request_latency_cycles.percentile(99));
}

TEST(Cosim, Deterministic) {
  const auto a = run_cosim(base_config(SystemKind::kBlueVisor, 0.6));
  const auto b = run_cosim(base_config(SystemKind::kBlueVisor, 0.6));
  EXPECT_EQ(a.trial.jobs_counted, b.trial.jobs_counted);
  EXPECT_EQ(a.trial.jobs_on_time, b.trial.jobs_on_time);
  EXPECT_EQ(a.noc_packets_delivered, b.noc_packets_delivered);
}

TEST(Cosim, AgreesWithAnalyticRunnerOnOutcome) {
  // Same workload seed and utilization: the cycle-accurate and analytic
  // models must agree on the qualitative outcome (all deadlines met at
  // moderate load on both paths).
  const CosimConfig cfg = base_config(SystemKind::kLegacy, 0.5);
  const auto cyc = run_cosim(cfg);
  const auto ana = run_trial(cfg.trial);

  EXPECT_TRUE(cyc.trial.success());
  EXPECT_TRUE(ana.success());
  // Identical workload construction: same number of counted jobs.
  EXPECT_EQ(cyc.trial.jobs_counted, ana.jobs_counted);
}

TEST(Cosim, CountsPchannelJobsLikeTheAnalyticRunner) {
  // P-channel jobs run under synthetic ids outside the arrival trace; both
  // ledgers must count them (deadline within the horizon) at completion.
  CosimConfig cfg;
  cfg.trial.kind = SystemKind::kIoGuard;
  cfg.trial.workload.num_vms = 4;
  cfg.trial.workload.target_utilization = 0.6;
  cfg.trial.workload.preload_fraction = 0.7;
  cfg.trial.horizon = 20000;
  cfg.trial.trial_seed = 3;
  const auto cyc = run_cosim(cfg);
  const auto ana = run_trial(cfg.trial);

  EXPECT_EQ(ana.jobs_counted, 1541u);
  EXPECT_EQ(cyc.trial.jobs_counted, ana.jobs_counted);
  EXPECT_TRUE(cyc.trial.success());
}

TEST(Cosim, IoGuardWithoutBackgroundIsRunTrial) {
  // I/O-GUARD's requests and responses take the dedicated link, never the
  // mesh: one trial loop, one ledger, so the two runs are the same bytes.
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    CosimConfig cfg = base_config(SystemKind::kIoGuard, 0.5);
    cfg.trial.trial_seed = seed;
    cfg.trial.collect_response_times = true;
    std::ostringstream cosim, analytic;
    write_trial_summary_json(cosim, cfg.trial, run_cosim(cfg).trial);
    write_trial_summary_json(analytic, cfg.trial, run_trial(cfg.trial));
    EXPECT_EQ(cosim.str(), analytic.str()) << "seed " << seed;
  }
}

TEST(Cosim, BaselineMeshTimingGolden) {
  // Pins the mesh stage's timing rules (request arrival at floor(c/cps)+1,
  // response sent at (completed_at-1)*cps, final slot floor(c/cps)+1, one
  // decision point per slot while a request is on the mesh): any change to
  // them moves these figures.
  struct Golden {
    SystemKind kind;
    double util;
    std::uint64_t counted, on_time, critical_misses, packets, requests;
    double request_cycles;
  };
  const Golden golden[] = {
      {SystemKind::kLegacy, 0.5, 78, 78, 0, 256, 128, 1803},
      {SystemKind::kLegacy, 0.9, 106, 78, 11, 337, 189, 2733},
      {SystemKind::kRtXen, 0.5, 78, 78, 0, 256, 128, 1454},
      {SystemKind::kRtXen, 0.9, 106, 77, 11, 336, 189, 2146},
      {SystemKind::kBlueVisor, 0.5, 78, 78, 0, 256, 128, 2961},
      {SystemKind::kBlueVisor, 0.9, 106, 77, 11, 337, 189, 4486},
  };
  for (const Golden& g : golden) {
    const auto r = run_cosim(base_config(g.kind, g.util));
    const std::string at =
        std::string(to_string(g.kind)) + " util " + std::to_string(g.util);
    EXPECT_EQ(r.trial.jobs_counted, g.counted) << at;
    EXPECT_EQ(r.trial.jobs_on_time, g.on_time) << at;
    EXPECT_EQ(r.trial.critical_misses, g.critical_misses) << at;
    EXPECT_EQ(r.trial.dropped, 0u) << at;
    EXPECT_EQ(r.noc_packets_delivered, g.packets) << at;
    EXPECT_EQ(r.request_latency_cycles.count(), g.requests) << at;
    double sum = 0.0;
    for (double v : r.request_latency_cycles.samples()) sum += v;
    EXPECT_EQ(sum, g.request_cycles) << at;
  }
}

TEST(Cosim, IoGuardCarriesTheTrialsFaultPlan) {
  // One loop: the fault injector, resilience and recovery ledger of the
  // trial run under cosim exactly as under run_trial.
  CosimConfig cfg = base_config(SystemKind::kIoGuard, 0.6);
  cfg.trial.faults = faults::FaultPlan::canned("mixed").value();
  cfg.trial.collect_response_times = true;
  const TrialResult cyc = run_cosim(cfg).trial;
  const TrialResult ana = run_trial(cfg.trial);
  EXPECT_EQ(summary_json(cfg.trial, cyc), summary_json(cfg.trial, ana));
  EXPECT_GT(cyc.faults.injected_total, 0u);
  EXPECT_EQ(cyc.faults.injected_total, ana.faults.injected_total);
}

TEST(Cosim, IoGuardCarriesTheTrialsGschedPolicy) {
  CosimConfig cfg = base_config(SystemKind::kIoGuard, 0.7);
  cfg.trial.gsched_policy = core::GschedPolicy::kJobEdf;
  cfg.trial.collect_response_times = true;
  EXPECT_EQ(summary_json(cfg.trial, run_cosim(cfg).trial),
            summary_json(cfg.trial, run_trial(cfg.trial)));
}

TEST(Cosim, IoGuardSteppedIsRunTrialEventDriven) {
  CosimConfig cfg = base_config(SystemKind::kIoGuard, 0.5);
  cfg.trial.collect_response_times = true;
  const std::string event = summary_json(cfg.trial, run_trial(cfg.trial));
  cfg.trial.stepped = true;
  EXPECT_EQ(summary_json(cfg.trial, run_cosim(cfg).trial), event);
}

TEST(Cosim, BaselineSteppedMatchesEventDriven) {
  // The mesh stage's decision points (one per slot while a request is on
  // the mesh) make the event-driven loop see what the stepped loop sees.
  for (SystemKind kind : {SystemKind::kLegacy, SystemKind::kRtXen,
                          SystemKind::kBlueVisor}) {
    CosimConfig cfg = base_config(kind, 0.9);
    cfg.trial.collect_response_times = true;
    const CosimResult event = run_cosim(cfg);
    cfg.trial.stepped = true;
    const CosimResult stepped = run_cosim(cfg);
    EXPECT_EQ(summary_json(cfg.trial, event.trial),
              summary_json(cfg.trial, stepped.trial))
        << to_string(kind);
    EXPECT_EQ(event.noc_packets_delivered, stepped.noc_packets_delivered);
    EXPECT_EQ(event.request_latency_cycles.samples(),
              stepped.request_latency_cycles.samples())
        << to_string(kind);
  }
}

TEST(Cosim, RecordsEveryCriticalCompletionLikeRunTrial) {
  // Same ledger as run_trial: when collected, every critical completion
  // leaves a response-time sample of at least one slot; otherwise none.
  CosimConfig cfg = base_config(SystemKind::kLegacy, 0.5);
  cfg.trial.collect_response_times = true;
  const TrialResult r = run_cosim(cfg).trial;
  ASSERT_TRUE(r.success());
  EXPECT_GT(r.response_slots.count(), 0u);
  for (double v : r.response_slots.samples()) EXPECT_GE(v, 1.0);
  cfg.trial.collect_response_times = false;
  EXPECT_EQ(run_cosim(cfg).trial.response_slots.count(), 0u);
}

TEST(Cosim, RtXenRequestsPassTheVmmBeforeTheMesh) {
  CosimConfig cfg = base_config(SystemKind::kRtXen, 0.5);
  cfg.trial.collect_stage_latencies = true;
  const CosimResult r = run_cosim(cfg);
  EXPECT_GT(r.trial.stage_vmm.count(), 0u);
  EXPECT_GT(r.trial.stage_vmm.mean(), 0.0);
  EXPECT_GT(r.trial.stage_transit.count(), 0u);
  // Every request crosses the mesh; the stage figures cover critical jobs.
  EXPECT_GE(r.request_latency_cycles.count(), r.trial.stage_transit.count());
}

TEST(Cosim, EightVmsFitTheFloorplan) {
  CosimConfig cfg = base_config(SystemKind::kLegacy, 0.5);
  cfg.trial.workload.num_vms = 8;
  const CosimResult r = run_cosim(cfg);
  EXPECT_TRUE(r.trial.success());
  EXPECT_GT(r.request_latency_cycles.count(), 0u);
  // The transit stage is the only difference: same workload, same jobs.
  EXPECT_EQ(r.trial.jobs_counted, run_trial(cfg.trial).jobs_counted);
}

TEST(Cosim, DeterministicWithBackgroundTraffic) {
  CosimConfig cfg = base_config(SystemKind::kLegacy, 0.5);
  cfg.trial.horizon = 100;
  cfg.background_rate = 0.002;
  const CosimResult a = run_cosim(cfg);
  const CosimResult b = run_cosim(cfg);
  ASSERT_GT(a.request_latency_cycles.count(), 0u);
  EXPECT_GT(a.noc_packets_delivered, 2 * a.request_latency_cycles.count());
  EXPECT_EQ(a.noc_packets_delivered, b.noc_packets_delivered);
  EXPECT_EQ(a.request_latency_cycles.samples(),
            b.request_latency_cycles.samples());
  EXPECT_EQ(summary_json(cfg.trial, a.trial), summary_json(cfg.trial, b.trial));
}

TEST(Cosim, IoGuardMeshCarriesOnlyBackgroundTraffic) {
  CosimConfig cfg = base_config(SystemKind::kIoGuard, 0.5);
  cfg.trial.horizon = 100;
  cfg.background_rate = 0.002;
  const CosimResult r = run_cosim(cfg);
  EXPECT_GT(r.noc_packets_delivered, 0u);
  EXPECT_EQ(r.request_latency_cycles.count(), 0u);
  // Background packets never touch the I/O path: the trial is run_trial's.
  cfg.trial.collect_response_times = false;
  EXPECT_EQ(summary_json(cfg.trial, r.trial),
            summary_json(cfg.trial, run_trial(cfg.trial)));
}

}  // namespace
}  // namespace ioguard::sys

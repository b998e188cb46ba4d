// Unit tests of the benchmark's own helpers: the percentile rule, the
// clocks and CPU pinning, span self time, and the replay-tally gate.
#include <gtest/gtest.h>
#include <sched.h>

#include <thread>
#include <vector>

#include "measure.hpp"
#include "replay.hpp"
#include "system/runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  const Percentile p50 = percentile(one_to(100), 50.0);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_EQ(percentile(one_to(100), 90.0).value, 90.0);
  EXPECT_EQ(percentile(one_to(100), 100.0).value, 100.0);
  EXPECT_EQ(percentile({7.0}, 50.0).value, 7.0);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(percentile(one_to(100), 90.0).ok);   // 10 beyond rank 90
  EXPECT_FALSE(percentile(one_to(99), 90.0).ok);   // 9 beyond rank 90
  EXPECT_TRUE(percentile(one_to(1000), 99.0).ok);  // 10 beyond rank 990
  EXPECT_FALSE(percentile(one_to(999), 99.0).ok);
  EXPECT_TRUE(percentile(one_to(20), 50.0).ok);
  EXPECT_FALSE(percentile(one_to(19), 50.0).ok);
  EXPECT_FALSE(percentile({}, 50.0).ok);
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(CpuSeconds, CountsWorkOfEveryThread) {
  const double c0 = cpu_seconds();
  auto spin = [] {
    const double t0 = cpu_seconds();
    volatile std::uint64_t x = 0;
    while (cpu_seconds() - t0 < 0.02) x = x + 1;
  };
  std::thread other(spin);
  other.join();
  EXPECT_GE(cpu_seconds() - c0, 0.02);
}

TEST(PinToOneCpu, PinsThenRestores) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof before, &before), 0);
  {
    PinToOneCpu pin;
    cpu_set_t now;
    ASSERT_EQ(sched_getaffinity(0, sizeof now, &now), 0);
    EXPECT_EQ(CPU_COUNT(&now), 1);
    std::size_t inherited = 0;
    std::thread child([&] {
      cpu_set_t mask;
      if (sched_getaffinity(0, sizeof mask, &mask) == 0)
        inherited = static_cast<std::size_t>(CPU_COUNT(&mask));
    });
    child.join();
    EXPECT_EQ(inherited, 1u);
    pin.release();
    ASSERT_EQ(sched_getaffinity(0, sizeof now, &now), 0);
    EXPECT_TRUE(CPU_EQUAL(&now, &before));
  }
  cpu_set_t after;
  ASSERT_EQ(sched_getaffinity(0, sizeof after, &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&after, &before));
}

TEST(SpeedProbe, SlowdownIsTheMedianKernelTimeOverTheReference) {
  SpeedProbe probe(true);
  EXPECT_EQ(probe.slowdown(), 1.0);  // no samples yet
  EXPECT_EQ(probe.slowdown_near(3), 1.0);
  for (int i = 0; i < 20; ++i)
    probe.add((i < 10 ? 1.0 : 3.0) * kReferenceKernelSeconds);
  EXPECT_DOUBLE_EQ(probe.slowdown(), 2.0);
  // Around a sample: the median of the samples kNear either side of it.
  EXPECT_DOUBLE_EQ(probe.slowdown_near(0), 1.0);
  EXPECT_DOUBLE_EQ(probe.slowdown_near(7), 1.0);   // samples 3..11
  EXPECT_DOUBLE_EQ(probe.slowdown_near(10), 3.0);  // samples 6..14
  EXPECT_DOUBLE_EQ(probe.slowdown_near(19), 3.0);
  EXPECT_DOUBLE_EQ(probe.slowdown_near(100), 3.0);  // clamped to the last
  probe.sample();
  EXPECT_EQ(probe.samples(), 21u);
}

Span span(const char* name, std::uint64_t start, std::uint64_t end,
          int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SpanLog, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log;
  const int root = log.add(span("trial", 0, 100, -1));
  log.add(span("a", 10, 30, root));
  const int b = log.add(span("b", 20, 50, root));  // overlaps a
  log.add(span("c", 90, 120, root));               // clipped at 100
  log.add(span("b.inner", 25, 45, b));             // grandchild
  const auto self = log.self_ns();
  EXPECT_EQ(self[0], 100u - 40u - 10u);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 30u - 20u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 20u);
  const auto by_name = log.self_ns_by_name();
  EXPECT_EQ(by_name.at("trial"), 50u);
}

TEST(SpanLog, SpanWithoutChildrenIsAllSelf) {
  SpanLog log;
  log.add(span("x", 5, 9, -1));
  EXPECT_EQ(log.self_ns()[0], 4u);
}

ioguard::sys::TrialConfig tiny(ioguard::sys::SystemKind kind) {
  ioguard::sys::TrialConfig tc;
  tc.kind = kind;
  tc.workload.num_vms = 4;
  tc.workload.target_utilization = 0.5;
  tc.workload.preload_fraction =
      kind == ioguard::sys::SystemKind::kIoGuard ? 0.7 : 0.0;
  tc.min_jobs_per_task = 3;
  tc.trial_seed = 11;
  return tc;
}

TEST(ReplayGate, ReplayTalliesEqualRunTrialOnTinyConfigs) {
  using ioguard::sys::SystemKind;
  for (const auto kind : {SystemKind::kLegacy, SystemKind::kRtXen,
                          SystemKind::kBlueVisor, SystemKind::kIoGuard}) {
    for (const bool stepped : {false, true}) {
      auto cfg = tiny(kind);
      cfg.stepped = stepped;
      LayerCounters counters;
      SpanLog spans;
      const auto replayed = replay_trial(cfg, counters, spans, 0);
      const auto program = ioguard::sys::run_trial(cfg);
      EXPECT_EQ(tallies_diff(program, replayed), "")
          << ioguard::sys::to_string(kind) << " stepped=" << stepped;
      EXPECT_GT(replayed.jobs_counted, 0u);
      // Five phase spans under one trial span, all closed.
      ASSERT_EQ(spans.spans().size(), 6u);
      for (const Span& s : spans.spans()) EXPECT_GE(s.end_ns, s.start_ns);
    }
  }
}

TEST(ReplayGate, CoversFaultsAndModeSwitching) {
  auto cfg = observed_trial(5, 0);
  cfg.workload.num_vms = 4;
  cfg.min_jobs_per_task = 3;
  LayerCounters counters;
  SpanLog spans;
  const auto replayed = replay_trial(cfg, counters, spans, 0);
  const auto program = ioguard::sys::run_trial(cfg);
  EXPECT_EQ(tallies_diff(program, replayed), "");
  EXPECT_GT(program.faults.injected_total, 0u);
}

TEST(ReplayGate, DetectsADifferingTally) {
  const auto program = ioguard::sys::run_trial(tiny(
      ioguard::sys::SystemKind::kLegacy));
  auto tampered = program;
  ++tampered.critical_misses;
  EXPECT_EQ(tallies_diff(program, tampered), "critical_misses");
  tampered = program;
  tampered.device_busy_frac += 1e-12;
  EXPECT_EQ(tallies_diff(program, tampered), "device_busy_frac");
}

}  // namespace
}  // namespace perfbench

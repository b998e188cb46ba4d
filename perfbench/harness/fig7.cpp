// fig7_sweep: the paper's Fig. 7 experiment. Five systems x {4, 8} VMs x
// utilization {0.40, 0.60, 0.80, 0.95}, fault-free, telemetry off, as a
// closed batch on one worker. Each pass draws one fresh trial per point (the
// seed sets ExperimentConfig::base_seed); every point runs in event mode
// through run_point's runner and again on the stepped oracle through
// sys::run_point, and the two PointResults must agree bit for bit. Trials
// are timed in CPU seconds.
#include <iostream>
#include <iterator>
#include <map>
#include <memory>

#include "system/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ioguard;

namespace {

/// One trial per point and pass, on one worker: the timed run measures
/// trials on one thread, in CPU time.
sys::ExperimentConfig fig7_config(std::uint64_t base_seed,
                                  std::size_t jobs = 1) {
  sys::ExperimentConfig cfg;
  cfg.trials = jobs;
  cfg.min_jobs_per_task = kMinJobsPerTask;
  cfg.base_seed = base_seed;
  cfg.jobs = jobs;
  return sys::ExperimentConfig::validated(cfg).value();
}

/// Passes over the grid a timed run makes at least: every point's median
/// trial cost is then a median of three or more trials.
constexpr std::size_t kMinPasses = 3;
constexpr std::uint64_t kWarmupSeed = 0x5e7;

/// Per-system outcome over the run; printed so a change that alters
/// simulated outcomes is visible next to the timings.
struct SystemTally {
  std::size_t trials = 0, successes = 0, admitted_with_miss = 0;
  std::uint64_t critical_misses = 0, dropped = 0;
};

}  // namespace

void run_fig7(const Options& opt, Report& report) {
  const auto systems = sys::figure7_systems();
  const std::size_t cells = std::size(kFig7Vms) * std::size(kFig7Utils) *
                            systems.size();

  // Set-up: the runner plus one warm-up trial per system at the first grid
  // point (lazy allocations, page faults, instruction caches). The warm-up
  // trials are the same in every run, so set-up time does not hinge on
  // --seed.
  std::unique_ptr<sys::ParallelRunner> runner;
  const double setup_s = setup_seconds(kSetupRepeats, true, [&](std::size_t i) {
    runner = std::make_unique<sys::ParallelRunner>(1);
    const auto warm = fig7_config(mix_seed(kWarmupSeed, 0, i));
    const auto results = runner->run_trials(systems.size(), [&](std::size_t t) {
      return point_trial(systems[t], kFig7Vms[0], kFig7Utils[0], warm, 0);
    });
    report.attempt(results.size());
  });

  double trial_s = 0.0;  ///< CPU seconds of the last event-mode trial
  sys::SupervisionPolicy policy;
  policy.trial_fn = [&](const sys::TrialConfig& tc) {
    const double c0 = cpu_seconds();
    sys::TrialResult r = sys::run_trial(tc);
    trial_s = cpu_seconds() - c0;
    return r;
  };

  std::map<std::string, SystemTally> tally;
  SpeedProbe speed(true);
  std::vector<std::vector<double>> event_s(cells), stepped_s(cells);
  std::vector<double> point_rss_mb;  ///< peak RSS growth while each point ran
  std::size_t event_trials = 0, passes = 0;
  const auto start = Clock::now();
  for (; passes < kMinPasses || seconds_since(start) < opt.seconds; ++passes) {
    const auto cfg = fig7_config(pass_seed(opt.seed, passes));
    auto stepped_cfg = cfg;
    stepped_cfg.stepped = true;
    std::size_t cell = 0;
    for (const std::size_t vms : kFig7Vms) {
      for (const double util : kFig7Utils) {
        for (const auto& system : systems) {
          speed.sample();
          const double rss_base = reset_peak_rss();
          const sys::BatchResult batch = runner->run_supervised(
              cfg.trials,
              [&](std::size_t t) {
                return point_trial(system, vms, util, cfg, t);
              },
              policy);
          event_s[cell].push_back(trial_s);

          sys::PointResult event;
          event.system = system;
          event.num_vms = vms;
          event.target_utilization = util;
          event.trials = cfg.trials;
          event.abandoned = batch.abandoned;
          SystemTally& st = tally[system.label];
          for (std::size_t t = 0; t < batch.results.size(); ++t) {
            if (batch.outcomes[t] == sys::TrialOutcome::kAbandoned) continue;
            const sys::TrialResult& r = batch.results[t];
            fold_trial(event, r);
            ++st.trials;
            st.successes += r.success() ? 1 : 0;
            st.critical_misses += r.critical_misses;
            st.dropped += r.dropped;
            if (system.kind == sys::SystemKind::kIoGuard && r.admitted &&
                (r.misses > 0 || r.dropped > 0))
              ++st.admitted_with_miss;
          }

          const double c0 = cpu_seconds();
          const sys::PointResult stepped =
              sys::run_point(system, vms, util, stepped_cfg);
          stepped_s[cell].push_back(cpu_seconds() - c0);
          point_rss_mb.push_back(window_peak_rss_mb() - rss_base);

          event_trials += cfg.trials;
          ++cell;
          report.attempt(2 * cfg.trials);
          if (batch.abandoned + stepped.abandoned > 0)
            report.fail(batch.abandoned + stepped.abandoned,
                        system.label + ": abandoned trials");
          if (const std::string d = point_diff(event, stepped); !d.empty())
            report.fail(cfg.trials, system.label + " vms=" +
                                        std::to_string(vms) + " util=" +
                                        std::to_string(util) + ": event " +
                                        d + " differs from stepped");
        }
      }
    }
  }

  // Timings as on the reference host: each point's divided by the slowdown
  // around the calibration sample taken just before it (see SpeedProbe).
  for (std::size_t c = 0; c < cells; ++c)
    for (std::size_t p = 0; p < event_s[c].size(); ++p) {
      const double slow = speed.slowdown_near(p * cells + c);
      event_s[c][p] /= slow;
      stepped_s[c][p] /= slow;
    }
  for (std::size_t p = 0; p < passes; ++p) {
    std::vector<double> ms;
    for (std::size_t c = 0; c < cells; ++c) ms.push_back(event_s[c][p] * 1e3);
    std::cout << "  pass " << p << ": median trial " << median(ms)
              << " ms, slowdown " << speed.slowdown_near(p * cells + cells / 2)
              << "\n";
  }
  const double slowdown = speed.slowdown();
  // One sweep at each cell's median trial cost: a trial whose seed makes it
  // unusually long or short moves its cell's median little.
  double sweep_event_s = 0.0, sweep_stepped_s = 0.0;
  std::vector<double> trial_ms;
  for (std::size_t c = 0; c < cells; ++c) {
    sweep_event_s += median(event_s[c]);
    sweep_stepped_s += median(stepped_s[c]);
    for (const double t : event_s[c]) trial_ms.push_back(t * 1e3);
  }
  std::cout << "fig7_sweep: " << passes << " passes over " << cells
            << " points, " << event_trials << " event + " << event_trials
            << " stepped trials in " << seconds_since(start)
            << " s on 1 worker; host slowdown " << slowdown << " (median of "
            << speed.samples() << " calibration runs)\n";
  for (const auto& system : systems) {
    const SystemTally& st = tally[system.label];
    std::cout << "  " << system.label << ": success ratio "
              << static_cast<double>(st.successes) /
                     static_cast<double>(std::max<std::size_t>(st.trials, 1))
              << ", critical misses " << st.critical_misses << ", drops "
              << st.dropped;
    if (system.kind == sys::SystemKind::kIoGuard)
      std::cout << ", admitted-with-miss " << st.admitted_with_miss;
    std::cout << " (" << st.trials << " trials)\n";
  }
  report.metric("setup_s", setup_s, "s");
  report.metric("ops_per_s", static_cast<double>(cells) / sweep_event_s,
                "1/s");
  report.metric("reference_ops_per_s",
                static_cast<double>(cells) / sweep_stepped_s, "1/s");
  std::cout << "  trials_per_s = " << report.value("ops_per_s")
            << " 1/s, stepped_trials_per_s = "
            << report.value("reference_ops_per_s")
            << " 1/s (CPU time, reference host)\n";
  report_percentile(report, "op_ms_p50", trial_ms, 50.0, "ms");
  report_percentile(report, "op_ms_tail", trial_ms, 90.0, "ms");
  report.metric("peak_rss_mb", median(point_rss_mb), "MB");
  std::cout << "  peak_rss_mb = " << report.value("peak_rss_mb")
            << " MB (median growth over points; whole-run peak " << peak_rss_mb()
            << " MB)\n";
}

void trace_fig7(const Options& opt, Report& report) {
  const auto systems = sys::figure7_systems();
  const auto cfg = fig7_config(pass_seed(opt.seed, 0), opt.jobs);

  // One trial per (system, VMs, util), replayed and tally-gated.
  std::vector<sys::TrialConfig> configs;
  SchedInputs sched_inputs;
  for (const std::size_t vms : kFig7Vms)
    for (const double util : kFig7Utils)
      for (const auto& system : systems) {
        configs.push_back(point_trial(system, vms, util, cfg, 0));
        if (system.label == "I/O-GUARD-70")
          add_case_study_sched_inputs(configs.back(), sched_inputs);
      }
  SpanLog spans;
  const TrialStats own = measure_trials(configs, report, spans);
  report_trial_layers(own, TrialStats{}, report);

  // Closed-batch efficiency of the sweep as run_point runs it.
  sys::BatchTiming timing;
  for (const std::size_t vms : kFig7Vms)
    for (const double util : kFig7Utils)
      for (const auto& system : systems)
        (void)sys::run_point(system, vms, util, cfg, &timing);
  report_parallel_efficiency(report, timing);

  measure_sched(sched_inputs, report);

  // Layers this workload does not reach: small probes.
  sys::TrialConfig tapped = observed_trial(opt.seed, 0);
  tapped.workload.num_vms = 4;
  tapped.workload.target_utilization = 0.4;
  tapped.min_jobs_per_task = 5;
  measure_telemetry(tapped, 2, opt.out_dir + "/flight-probe", report);
  measure_service(opt, 0.5, report, spans, nullptr);
  write_spans(opt, spans);
}

}  // namespace perfbench

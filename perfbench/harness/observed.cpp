// ioguard_observed: I/O-GUARD-70, 8 VMs, utilization 0.90, mixed-criticality
// workload with mode switching and the "mixed" fault plan, with every
// observability tap on (event trace, metrics registry, jitter, profile,
// stage latencies, response times, flight recorder) and the Perfetto,
// Prometheus and summary exports after each batch. Closed batch on one
// worker, timed in CPU seconds. Each batch runs again on the stepped oracle;
// the Prometheus text and every trial's summary JSON must be byte-identical
// between the modes.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/event_trace.hpp"
#include "system/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/prometheus.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ioguard;

namespace {

constexpr std::size_t kTraceCapacity = 1 << 16;
constexpr std::uint64_t kWarmupSeed = 0x5e7;

/// One batch with every tap attached; exports rendered to strings.
struct TappedBatch {
  sys::BatchResult batch;
  std::string prometheus;
  std::string perfetto;
  std::vector<std::string> summaries;  ///< one per trial
};

/// Trials of one batch: the exports are written once per batch.
constexpr std::size_t kBatchTrials = 2;

class ObservedRunner {
 public:
  explicit ObservedRunner(std::string dir) : dir_(std::move(dir)), runner_(1) {
    for (const char* sub : {"event", "stepped", "export"})
      std::filesystem::create_directories(dir_ + "/" + sub);
    policy_.trial_fn = [this](const sys::TrialConfig& tc) {
      const double c0 = cpu_seconds();
      sys::TrialResult r = sys::run_trial(tc);
      if (!tc.stepped) trial_ms_.push_back((cpu_seconds() - c0) * 1e3);
      return r;
    };
  }

  [[nodiscard]] sys::TrialConfig tapped(std::uint64_t base_seed,
                                        std::size_t t, bool stepped,
                                        core::EventTrace* trace) const {
    sys::TrialConfig tc = observed_trial(base_seed, t);
    tc.stepped = stepped;
    tc.trace = trace;
    tc.collect_jitter = tc.collect_profile = true;
    tc.collect_stage_latencies = tc.collect_response_times = true;
    tc.flight_dir = dir_ + (stepped ? "/stepped" : "/event");
    tc.flight_stem = "trial" + std::to_string(t);
    return tc;
  }

  /// Runs `n` trials; the event-mode batch also writes its exports.
  TappedBatch run(std::uint64_t base_seed, std::size_t n, bool stepped) {
    std::vector<std::unique_ptr<core::EventTrace>> traces;
    for (std::size_t t = 0; t < n; ++t)
      traces.push_back(std::make_unique<core::EventTrace>(kTraceCapacity));
    telemetry::MetricsRegistry registry;
    TappedBatch out;
    out.batch = runner_.run_supervised(
        n,
        [&](std::size_t t) {
          return tapped(base_seed, t, stepped, traces[t].get());
        },
        policy_, &registry);

    std::ostringstream prom, perfetto;
    telemetry::write_prometheus(prom, registry);
    out.prometheus = prom.str();
    std::vector<telemetry::ProfileCounterTrack> tracks;
    for (const auto& c : out.batch.results[0].profile)
      tracks.push_back({c.name, c.busy_slots, c.stall_slots, c.quiescent_slots});
    telemetry::write_perfetto_json(perfetto, *traces[0], {}, tracks);
    out.perfetto = perfetto.str();
    for (std::size_t t = 0; t < n; ++t) {
      std::ostringstream summary;
      sys::write_trial_summary_json(summary,
                                    tapped(base_seed, t, stepped, nullptr),
                                    out.batch.results[t]);
      out.summaries.push_back(summary.str());
    }
    if (!stepped) {
      std::ofstream(dir_ + "/export/trace.perfetto.json") << out.perfetto;
      std::ofstream(dir_ + "/export/metrics.prom") << out.prometheus;
      std::ofstream(dir_ + "/export/summary.json") << out.summaries[0];
    }
    return out;
  }

  [[nodiscard]] const std::vector<double>& trial_ms() const {
    return trial_ms_;
  }

 private:
  std::string dir_;
  sys::ParallelRunner runner_;
  sys::SupervisionPolicy policy_;
  std::vector<double> trial_ms_;
};

}  // namespace

void run_observed(const Options& opt, Report& report) {
  const std::string dir =
      opt.out_dir + "/observed-" + std::to_string(opt.seed);
  std::filesystem::remove_all(dir);

  // Set-up: output directories, the runner and one tapped warm-up trial
  // (first-touch of the trace rings and registries). The warm-up trial is
  // the same in every run: its cost varies by 50 % between trial seeds,
  // which would make set-up time hinge on --seed.
  std::unique_ptr<ObservedRunner> runner;
  const double setup_s = setup_seconds(kSetupRepeats, true, [&](std::size_t) {
    runner = std::make_unique<ObservedRunner>(dir);
    const auto warm = runner->run(kWarmupSeed, 1, false);
    report.attempt(1);
    if (warm.batch.abandoned > 0) report.fail(1, "warm-up trial abandoned");
  });
  const std::size_t warm_samples = runner->trial_ms().size();

  // p90 needs >= 100 samples for 10 beyond it.
  constexpr std::size_t kMinSamples = 100;
  const std::size_t n = kBatchTrials;
  SpeedProbe speed(true);
  std::vector<double> event_s, stepped_s;  ///< CPU seconds per batch
  std::vector<double> batch_rss_mb;  ///< peak RSS growth while each batch ran
  std::size_t trials = 0, checked = 0;
  std::uint64_t injected = 0, switches = 0, hi_misses = 0, dumps = 0;
  const auto start = Clock::now();
  for (std::uint64_t b = 0; b == 0 || seconds_since(start) < opt.seconds ||
                            trials < kMinSamples;
       ++b) {
    const std::uint64_t base = pass_seed(opt.seed, b);
    const double rss_base = reset_peak_rss();
    speed.sample();
    double c0 = cpu_seconds();
    const TappedBatch event = runner->run(base, n, false);
    event_s.push_back(cpu_seconds() - c0);
    speed.sample();
    c0 = cpu_seconds();
    const TappedBatch stepped = runner->run(base, n, true);
    stepped_s.push_back(cpu_seconds() - c0);
    batch_rss_mb.push_back(window_peak_rss_mb() - rss_base);

    trials += n;
    report.attempt(2 * n);
    const std::size_t abandoned =
        event.batch.abandoned + stepped.batch.abandoned;
    if (abandoned > 0) report.fail(abandoned, "abandoned observed trials");
    if (event.prometheus != stepped.prometheus)
      report.fail(n, "Prometheus text differs between event and stepped");
    for (std::size_t t = 0; t < n; ++t) {
      ++checked;
      if (event.summaries[t] != stepped.summaries[t])
        report.fail(1, "summary JSON of trial " + std::to_string(t) +
                           " differs between event and stepped");
      const sys::TrialResult& r = event.batch.results[t];
      injected += r.faults.injected_total;
      switches += r.mcs.switches_to_hi;
      hi_misses += r.mcs.hi_misses;
      dumps += r.flight_dumps;
    }
  }
  std::filesystem::remove_all(dir);

  // Timings as on the reference host: each batch's divided by the slowdown
  // around the calibration sample taken just before it (see SpeedProbe).
  for (std::size_t b = 0; b < event_s.size(); ++b) {
    event_s[b] /= speed.slowdown_near(2 * b);
    stepped_s[b] /= speed.slowdown_near(2 * b + 1);
  }
  const double slowdown = speed.slowdown();
  std::vector<double> samples(runner->trial_ms().begin() +
                                  static_cast<std::ptrdiff_t>(warm_samples),
                              runner->trial_ms().end());
  for (std::size_t t = 0; t < samples.size(); ++t)
    samples[t] /= speed.slowdown_near(2 * (t / n));
  std::cout << "ioguard_observed: " << trials << " event + " << trials
            << " stepped trials in " << seconds_since(start)
            << " s on 1 worker; " << checked
            << " summaries byte-compared; host slowdown " << slowdown
            << " (median of " << speed.samples() << " calibration runs)\n"
            << "  faults injected " << injected << ", mode switches "
            << switches << ", HI misses " << hi_misses << ", flight dumps "
            << dumps << "\n";
  // Rates at the median batch cost (trials, taps and exports).
  report.metric("setup_s", setup_s, "s");
  report.metric("ops_per_s", static_cast<double>(n) / median(event_s), "1/s");
  report.metric("reference_ops_per_s",
                static_cast<double>(n) / median(stepped_s), "1/s");
  std::cout << "  trials_per_s = " << report.value("ops_per_s")
            << " 1/s, stepped_trials_per_s = "
            << report.value("reference_ops_per_s")
            << " 1/s (CPU time, reference host)\n";
  report_percentile(report, "op_ms_p50", samples, 50.0, "ms");
  report_percentile(report, "op_ms_tail", samples, 90.0, "ms");
  report.metric("peak_rss_mb", median(batch_rss_mb), "MB");
}

void trace_observed(const Options& opt, Report& report) {
  const std::string dir =
      opt.out_dir + "/observed-trace-" + std::to_string(opt.seed);
  std::filesystem::remove_all(dir);
  const std::uint64_t base = pass_seed(opt.seed, 0);

  // The workload's own trials, with the tally-relevant taps (trace ring and
  // jitter recorder) attached, replayed and tally-gated.
  std::vector<std::unique_ptr<core::EventTrace>> traces;
  std::vector<sys::TrialConfig> configs;
  SchedInputs sched_inputs;
  for (std::size_t t = 0; t < opt.jobs; ++t) {
    traces.push_back(std::make_unique<core::EventTrace>(kTraceCapacity));
    sys::TrialConfig tc = observed_trial(base, t);
    tc.trace = traces.back().get();
    tc.collect_jitter = true;
    configs.push_back(tc);
    if (t == 0) add_case_study_sched_inputs(tc, sched_inputs);
  }
  SpanLog spans;
  const TrialStats own = measure_trials(configs, report, spans);
  const TrialStats probe = measure_trials(probe_trials(opt.seed), report, spans);
  report_trial_layers(own, probe, report);

  {
    ObservedRunner runner(dir);
    sys::BatchTiming timing;
    sys::ParallelRunner pool(opt.jobs);
    std::vector<std::unique_ptr<core::EventTrace>> rings;
    for (std::size_t t = 0; t < opt.jobs; ++t)
      rings.push_back(std::make_unique<core::EventTrace>(kTraceCapacity));
    telemetry::MetricsRegistry registry;
    (void)pool.run_trials(
        opt.jobs,
        [&](std::size_t t) {
          return runner.tapped(base, t, false, rings[t].get());
        },
        &registry, &timing);
    report_parallel_efficiency(report, timing);
  }

  measure_telemetry(observed_trial(base, 0), opt.jobs, dir + "/flight",
                    report);
  measure_sched(sched_inputs, report);
  measure_service(opt, 0.5, report, spans, nullptr);
  std::filesystem::remove_all(dir);
  write_spans(opt, spans);
}

}  // namespace perfbench

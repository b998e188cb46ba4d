// The benchmark's workloads and the per-layer measurements of its traced
// runs. Every workload takes only the seed; the simulator and the daemon
// receive the generated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "replay.hpp"
#include "sched/sbf.hpp"
#include "sched/slot_table.hpp"
#include "system/experiment.hpp"
#include "workload/task.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string admitd;   ///< path of the ioguard_admitd binary
  std::string out_dir;  ///< scratch output (spans, exports, flight dumps)
  /// Worker threads of the traced runs' batches and of admission_churn's
  /// untimed reply check; timed runs measure on one thread.
  std::size_t jobs = 4;
};

// ---- workloads (timed run: end-to-end metrics; traced run: per-layer) -----
void run_fig7(const Options& opt, Report& report);
void trace_fig7(const Options& opt, Report& report);
void run_observed(const Options& opt, Report& report);
void trace_observed(const Options& opt, Report& report);
void run_churn(const Options& opt, Report& report);
void trace_churn(const Options& opt, Report& report);

// ---- shared pieces ---------------------------------------------------------

/// Set-ups a timed run makes; setup_s is their median.
inline constexpr std::size_t kSetupRepeats = 9;

/// Fig. 7 grid of the fig7_sweep workload.
inline constexpr std::size_t kFig7Vms[] = {4, 8};
inline constexpr double kFig7Utils[] = {0.40, 0.60, 0.80, 0.95};
inline constexpr std::size_t kMinJobsPerTask = 25;
/// Shorter ioguard_observed trials: with every tap on and the stepped re-run,
/// a timed run still reaches the 100 trials its p90 needs in about 20 s.
inline constexpr std::size_t kObservedJobsPerTask = 10;

/// Per-pass base seed of a workload run (pass 0, 1, ... draw fresh trials).
[[nodiscard]] std::uint64_t pass_seed(std::uint64_t seed, std::uint64_t pass);

/// The TrialConfig sys::run_point builds for trial `t` of one point.
[[nodiscard]] ioguard::sys::TrialConfig point_trial(
    const ioguard::sys::EvaluatedSystem& system, std::size_t num_vms,
    double util, const ioguard::sys::ExperimentConfig& cfg, std::size_t t);

/// The ioguard_observed trial: I/O-GUARD-70, 8 VMs, utilization 0.90,
/// mixed-criticality workload with mode switching and the "mixed" fault
/// plan; observability taps are attached by the caller.
[[nodiscard]] ioguard::sys::TrialConfig observed_trial(std::uint64_t base_seed,
                                                       std::size_t t);

/// run_point's fold of trial results into a PointResult.
void fold_trial(ioguard::sys::PointResult& point,
                const ioguard::sys::TrialResult& r);

/// "" when the two points agree bit for bit, else the first field that
/// differs.
[[nodiscard]] std::string point_diff(const ioguard::sys::PointResult& a,
                                     const ioguard::sys::PointResult& b);

/// Reports `name` with `unit`; when fewer than kMinBeyond samples rank
/// above the percentile the run fails (the sample set is too small).
void report_percentile(Report& report, const std::string& name,
                       const std::vector<double>& samples, double pct,
                       const std::string& unit);

// ---- per-layer measurements used by the traced runs -----------------------

/// What measure_trials() saw, split by back-end class.
struct TrialStats {
  LayerCounters ioguard, fifo;
  std::vector<double> build_us, trace_ms, design_ms, tally_us;
  double run_trial_s = 0.0;  ///< untraced event-mode run_trial
  double replay_s = 0.0;     ///< traced replay of the same configs
  /// (back-end class, utilization tag) -> (stepped s, event s).
  std::map<std::pair<std::string, std::string>, std::pair<double, double>>
      speed;
  std::size_t trials_ioguard = 0, trials_fifo = 0;
  std::uint64_t mode_switches = 0, hi_misses = 0, injected = 0, retries = 0;
};

/// Sequentially runs every config through run_trial (event and stepped) and
/// through the traced replay; a replay or stepped tally that differs from
/// run_trial's fails the run. Phase spans go to `spans`.
[[nodiscard]] TrialStats measure_trials(
    const std::vector<ioguard::sys::TrialConfig>& configs, Report& report,
    SpanLog& spans);

/// Reports workload.*, core.*, iodev.*, system.* and the simulated counts.
/// Each layer comes from `own` when the workload reached it, else from
/// `probe`.
void report_trial_layers(const TrialStats& own, const TrialStats& probe,
                         Report& report);

/// system.parallel_efficiency from a closed batch timing.
void report_parallel_efficiency(Report& report,
                                const ioguard::sys::BatchTiming& timing);

/// telemetry.* over `trials` runs of `config` with every tap on versus off.
void measure_telemetry(const ioguard::sys::TrialConfig& config,
                       std::size_t trials, const std::string& flight_dir,
                       Report& report);

/// Inputs of the sched.* timings: task sets with their servers, and fleets
/// (one table's supply with its active servers).
struct SchedInputs {
  std::vector<std::pair<ioguard::workload::TaskSet, ioguard::sched::ServerParams>>
      vms;
  std::vector<std::pair<ioguard::sched::TimeSlotTable,
                        std::vector<ioguard::sched::ServerParams>>>
      fleets;
};

/// Adds the design inputs of the case-study workload behind `config`
/// (every device's VM task sets, servers and table) to `inputs`.
void add_case_study_sched_inputs(const ioguard::sys::TrialConfig& config,
                                 SchedInputs& inputs);

/// sched.theorem4_us / theorem2_us / synthesize_us / mcs_check_us: direct
/// calls over the inputs (mcs_check on dual-criticality variants).
void measure_sched(const SchedInputs& inputs, Report& report);

/// service.* from a daemon session of `seconds` driven by the churn
/// generator, replayed in-process with one span per request; collects the
/// session's distinct task sets and fleets into `sched_inputs` when given.
void measure_service(const Options& opt, double seconds, Report& report,
                     SpanLog& spans, SchedInputs* sched_inputs);

/// Small trial configs (one I/O-GUARD, one FIFO baseline) for the layers a
/// workload does not reach, so every traced run reports every layer.
[[nodiscard]] std::vector<ioguard::sys::TrialConfig> probe_trials(
    std::uint64_t seed);

/// Writes the span log of a traced run under opt.out_dir.
void write_spans(const Options& opt, const SpanLog& spans);

}  // namespace perfbench

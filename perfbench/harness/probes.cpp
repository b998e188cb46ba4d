#include <algorithm>
#include <cstring>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "analysis/artifact_builder.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "replay.hpp"
#include "sched/admission.hpp"
#include "sched/mcs_admission.hpp"
#include "sched/server_design.hpp"
#include "system/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ioguard;

std::uint64_t pass_seed(std::uint64_t seed, std::uint64_t pass) {
  return mix_seed(seed, 0x9e7f, pass);
}

sys::TrialConfig point_trial(const sys::EvaluatedSystem& system,
                             std::size_t num_vms, double util,
                             const sys::ExperimentConfig& cfg, std::size_t t) {
  sys::TrialConfig tc;
  tc.kind = system.kind;
  tc.workload.num_vms = num_vms;
  tc.workload.target_utilization = util;
  tc.workload.preload_fraction = system.preload_fraction;
  tc.min_jobs_per_task = cfg.min_jobs_per_task;
  tc.trial_seed = sys::trial_seed_for(cfg, num_vms, util, t);
  tc.cal = cfg.cal;
  tc.faults = cfg.faults;
  tc.resilience = cfg.resilience;
  tc.stepped = cfg.stepped;
  return tc;
}

sys::TrialConfig observed_trial(std::uint64_t base_seed, std::size_t t) {
  constexpr std::size_t kVms = 8;
  constexpr double kUtil = 0.90;
  sys::TrialConfig tc;
  tc.kind = sys::SystemKind::kIoGuard;
  tc.workload.num_vms = kVms;
  tc.workload.target_utilization = kUtil;
  tc.workload.preload_fraction = 0.7;
  tc.workload.mixed_criticality = true;
  tc.min_jobs_per_task = kObservedJobsPerTask;
  tc.trial_seed = mix_seed(base_seed, sys::sweep_point_key(kVms, kUtil), t);
  tc.faults = faults::FaultPlan::canned("mixed").value();
  tc.mode_switch.enabled = true;
  return tc;
}

void fold_trial(sys::PointResult& point, const sys::TrialResult& r) {
  if (r.success()) ++point.successes;
  point.goodput_mbps.add(r.goodput_bytes_per_s * 8.0 / 1e6);
  point.busy_frac.add(r.device_busy_frac);
  if (r.jobs_counted > 0)
    point.critical_miss_rate.add(static_cast<double>(r.critical_misses) /
                                 static_cast<double>(r.jobs_counted));
}

namespace {

bool same_stats(const OnlineStats& a, const OnlineStats& b) {
  const auto x = a.raw();
  const auto y = b.raw();
  // Bitwise: both modes must fold identical doubles in identical order.
  return x.n == y.n && std::memcmp(&x.mean, &y.mean, sizeof x.mean) == 0 &&
         std::memcmp(&x.m2, &y.m2, sizeof x.m2) == 0 &&
         std::memcmp(&x.min, &y.min, sizeof x.min) == 0 &&
         std::memcmp(&x.max, &y.max, sizeof x.max) == 0;
}

std::string util_tag(double util) {
  std::ostringstream os;
  os << 'u' << std::lround(util * 100.0);
  return os.str();
}

double ms(double seconds) { return seconds * 1e3; }

}  // namespace

std::string point_diff(const sys::PointResult& a, const sys::PointResult& b) {
  if (a.trials != b.trials) return "trials";
  if (a.successes != b.successes) return "successes";
  if (!same_stats(a.goodput_mbps, b.goodput_mbps)) return "goodput_mbps";
  if (!same_stats(a.critical_miss_rate, b.critical_miss_rate))
    return "critical_miss_rate";
  if (!same_stats(a.busy_frac, b.busy_frac)) return "busy_frac";
  if (a.abandoned != b.abandoned) return "abandoned";
  return "";
}

void report_percentile(Report& report, const std::string& name,
                       const std::vector<double>& samples, double pct,
                       const std::string& unit) {
  const Percentile p = percentile(samples, pct);
  if (!p.ok)
    report.fail(0, name + ": only " + std::to_string(p.beyond) +
                       " samples beyond the percentile (need " +
                       std::to_string(kMinBeyond) + ")");
  report.metric(name, p.value, unit);
  std::cout << "  " << name << " = " << p.value << " " << unit << " (n="
            << p.samples << ", " << p.beyond << " beyond)\n";
}

// ---------------------------------------------------------------------------
// Trial layers: workload, core, iodev, system.

TrialStats measure_trials(const std::vector<sys::TrialConfig>& configs,
                          Report& report, SpanLog& spans) {
  TrialStats st;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const sys::TrialConfig& cfg = configs[i];
    const bool ioguard = cfg.kind == sys::SystemKind::kIoGuard;
    // The trial index within the traced run is the spans' request id.
    const auto request = static_cast<std::uint64_t>(std::count_if(
        spans.spans().begin(), spans.spans().end(),
        [](const Span& sp) { return sp.name == "trial"; }));
    const std::size_t first_span = spans.spans().size();
    auto fresh = [&] {
      if (cfg.trace) cfg.trace->clear();
    };

    fresh();
    auto t0 = Clock::now();
    const sys::TrialResult program = sys::run_trial(cfg);
    const double event_s = seconds_since(t0);

    fresh();
    LayerCounters& c = ioguard ? st.ioguard : st.fifo;
    t0 = Clock::now();
    const sys::TrialResult replayed = replay_trial(cfg, c, spans, request);
    st.replay_s += seconds_since(t0);
    st.run_trial_s += event_s;

    sys::TrialConfig stepped_cfg = cfg;
    stepped_cfg.stepped = true;
    fresh();
    t0 = Clock::now();
    const sys::TrialResult stepped = sys::run_trial(stepped_cfg);
    const double stepped_s = seconds_since(t0);

    report.attempt(1);
    if (const std::string d = tallies_diff(program, replayed); !d.empty())
      report.fail(1, "replay tally " + d + " differs from run_trial (" +
                         sys::to_string(cfg.kind) + ", trial seed " +
                         std::to_string(cfg.trial_seed) + ")");
    if (const std::string d = tallies_diff(program, stepped); !d.empty())
      report.fail(1, "stepped tally " + d + " differs from event mode");

    auto& speed = st.speed[{ioguard ? "ioguard" : "fifo",
                            util_tag(cfg.workload.target_utilization)}];
    speed.first += stepped_s;
    speed.second += event_s;
    (ioguard ? st.trials_ioguard : st.trials_fifo) += 1;
    st.mode_switches += program.mcs.switches_to_hi;
    st.hi_misses += program.mcs.hi_misses;
    st.injected += program.faults.injected_total;
    st.retries += program.faults.retries;

    for (std::size_t s = first_span; s < spans.spans().size(); ++s) {
      const Span& sp = spans.spans()[s];
      const double dur = static_cast<double>(sp.end_ns - sp.start_ns);
      if (sp.name == "build") st.build_us.push_back(dur / 1e3);
      if (sp.name == "trace") st.trace_ms.push_back(dur / 1e6);
      if (sp.name == "design" && ioguard) st.design_ms.push_back(dur / 1e6);
      if (sp.name == "tally") st.tally_us.push_back(dur / 1e3);
    }
  }
  return st;
}

void report_trial_layers(const TrialStats& own, const TrialStats& probe,
                         Report& r) {
  const bool own_any = own.trials_ioguard + own.trials_fifo > 0;
  const TrialStats& w = own_any ? own : probe;
  const TrialStats& core = own.trials_ioguard > 0 ? own : probe;
  const TrialStats& io = own.trials_fifo > 0 ? own : probe;
  const bool own_vmm = own.fifo.vmm_tick.calls > 0;

  r.metric("workload.build_us", median(w.build_us), "us");
  r.metric("workload.trace_ms", median(w.trace_ms), "ms");
  r.metric("workload.jobs",
           static_cast<double>(w.ioguard.jobs + w.fifo.jobs), "count");

  const LayerCounters& h = core.ioguard;
  r.metric("core.design_ms", median(core.design_ms), "ms");
  r.metric("core.tick_ns", h.hyp_tick.mean_ns(), "ns");
  r.metric("core.tick_calls", static_cast<double>(h.hyp_tick.calls), "count");
  r.metric("core.submit_ns", h.hyp_submit.mean_ns(), "ns");
  r.metric("core.next_busy_ns", h.hyp_next_busy.mean_ns(), "ns");
  r.metric("core.skipped_slot_frac",
           h.hyp_horizon_slots == 0
               ? 0.0
               : static_cast<double>(h.hyp_skipped_slots) /
                     static_cast<double>(h.hyp_horizon_slots),
           "ratio");
  r.metric("core.pool_dropped", static_cast<double>(h.pool_dropped), "count");
  r.metric("core.translations", static_cast<double>(h.translations), "count");
  r.metric("core.mode_switches", static_cast<double>(own.mode_switches),
           "count");
  r.metric("core.hi_misses", static_cast<double>(own.hi_misses), "count");
  r.metric("faults.injected", static_cast<double>(own.injected), "count");
  r.metric("faults.retries", static_cast<double>(own.retries), "count");

  const LayerCounters& f = io.fifo;
  r.metric("iodev.fifo_tick_ns", f.fifo_tick.mean_ns(), "ns");
  r.metric("iodev.fifo_enqueue_ns", f.fifo_enqueue.mean_ns(), "ns");
  r.metric("iodev.fifo_rejected", static_cast<double>(f.fifo_rejected),
           "count");

  LayerCounters all = w.ioguard;
  all.merge(w.fifo);
  const double slots = static_cast<double>(std::max<std::uint64_t>(
      all.horizon_slots, 1));
  r.metric("system.issue_ns_per_slot",
           static_cast<double>(all.issue_tick.ns) / slots, "ns");
  const LayerCounters& v = own_vmm ? own.fifo : probe.fifo;
  r.metric("system.vmm_ns_per_slot",
           static_cast<double>(v.vmm_tick.ns) /
               static_cast<double>(std::max<std::uint64_t>(
                   v.horizon_slots, 1)),
           "ns");
  r.metric("system.transit_ns_per_job",
           static_cast<double>(all.transit_sample.ns) /
               static_cast<double>(std::max<std::uint64_t>(
                   all.transit_sample.calls, 1)),
           "ns");
  r.metric("system.loop_self_ns_per_slot",
           static_cast<double>(all.loop_self_ns) / slots, "ns");
  r.metric("system.tally_us", median(w.tally_us), "us");
  r.metric("system.trace_overhead", w.replay_s / w.run_trial_s, "ratio");

  // Event-mode speedup over the stepped oracle, per back-end class and
  // utilization; the ROADMAP target is >= 1 everywhere.
  double worst = 0.0;
  bool first = true;
  std::cout << "event_speedup (stepped / event host time; target >= 1):\n";
  const std::pair<const char*, const TrialStats*> sources[] = {
      {"ioguard", &core}, {"fifo", &io}};
  for (const auto& [kind, s] : sources) {
    for (const auto& [key, sv] : s->speed) {
      if (key.first != kind) continue;
      const double ratio = sv.first / sv.second;
      std::cout << "  system.event_speedup." << key.first << "." << key.second
                << " = " << ratio << (ratio < 1.0 ? "  (below target)" : "")
                << "\n";
      worst = first ? ratio : std::min(worst, ratio);
      first = false;
    }
  }
  auto total = [](const TrialStats& s, const char* kind) {
    double stepped = 0.0, event = 0.0;
    for (const auto& [key, sv] : s.speed)
      if (key.first == kind) {
        stepped += sv.first;
        event += sv.second;
      }
    return stepped / event;
  };
  r.metric("system.event_speedup.ioguard", total(core, "ioguard"), "ratio");
  r.metric("system.event_speedup.fifo", total(io, "fifo"), "ratio");
  r.metric("system.event_speedup.min", worst, "ratio");
}

void report_parallel_efficiency(Report& report,
                                const sys::BatchTiming& timing) {
  report.metric("system.parallel_efficiency",
                timing.trial_seconds_sum /
                    (timing.wall_seconds * static_cast<double>(timing.jobs)),
                "ratio");
}

std::vector<sys::TrialConfig> probe_trials(std::uint64_t seed) {
  std::vector<sys::TrialConfig> out;
  for (const auto kind : {sys::SystemKind::kIoGuard, sys::SystemKind::kRtXen}) {
    sys::TrialConfig tc;
    tc.kind = kind;
    tc.workload.num_vms = 4;
    tc.workload.target_utilization = 0.4;
    tc.workload.preload_fraction = kind == sys::SystemKind::kIoGuard ? 0.7 : 0.0;
    tc.min_jobs_per_task = 5;
    tc.trial_seed = mix_seed(seed, 0x9b0be, out.size());
    out.push_back(tc);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Telemetry.

void measure_telemetry(const sys::TrialConfig& config, std::size_t trials,
                       const std::string& flight_dir, Report& r) {
  std::filesystem::create_directories(flight_dir);
  double off_s = 0.0, on_s = 0.0;
  std::vector<double> perfetto_ms, prom_ms, spans_ms, summary_us;
  std::vector<std::unique_ptr<telemetry::MetricsRegistry>> registries;
  std::uint64_t events = 0, dumps = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    sys::TrialConfig off = config;
    off.trial_seed = mix_seed(config.trial_seed, 0x7e1e, t);
    auto t0 = Clock::now();
    const sys::TrialResult plain = sys::run_trial(off);
    off_s += seconds_since(t0);

    core::EventTrace trace(1 << 16);
    auto reg = std::make_unique<telemetry::MetricsRegistry>();
    sys::TrialConfig on = off;
    on.trace = &trace;
    on.metrics = reg.get();
    on.collect_jitter = on.collect_profile = true;
    on.collect_stage_latencies = on.collect_response_times = true;
    on.flight_dir = flight_dir;
    on.flight_stem = "probe" + std::to_string(t);
    t0 = Clock::now();
    const sys::TrialResult tapped = sys::run_trial(on);
    on_s += seconds_since(t0);
    r.attempt(1);
    if (const std::string d = tallies_diff(plain, tapped); !d.empty())
      r.fail(1, "observability taps changed the simulated " + d);

    std::ostringstream sink;
    t0 = Clock::now();
    const auto job_spans = telemetry::collect_spans(trace);
    spans_ms.push_back(ms(seconds_since(t0)));
    std::vector<telemetry::ProfileCounterTrack> tracks;
    for (const auto& c : tapped.profile)
      tracks.push_back({c.name, c.busy_slots, c.stall_slots, c.quiescent_slots});
    t0 = Clock::now();
    telemetry::write_perfetto_json(sink, trace, {}, tracks);
    perfetto_ms.push_back(ms(seconds_since(t0)));
    t0 = Clock::now();
    telemetry::write_prometheus(sink, *reg);
    prom_ms.push_back(ms(seconds_since(t0)));
    t0 = Clock::now();
    sys::write_trial_summary_json(sink, on, tapped);
    summary_us.push_back(seconds_since(t0) * 1e6);
    events += trace.size();
    if (job_spans.empty() && trace.size() > 0)
      r.fail(1, "collect_spans found no job in a non-empty trace");
    dumps += tapped.flight_dumps;
    registries.push_back(std::move(reg));
  }
  telemetry::MetricsRegistry merged;
  const auto t0 = Clock::now();
  for (const auto& reg : registries) merged.merge(*reg);
  const double merge_ms = ms(seconds_since(t0));

  r.metric("telemetry.taps_overhead", on_s / off_s, "ratio");
  r.metric("telemetry.perfetto_ms", median(perfetto_ms), "ms");
  r.metric("telemetry.prometheus_ms", median(prom_ms), "ms");
  r.metric("telemetry.spans_ms", median(spans_ms), "ms");
  r.metric("telemetry.summary_us", median(summary_us), "us");
  r.metric("telemetry.merge_ms", merge_ms, "ms");
  r.metric("telemetry.trace_events", static_cast<double>(events), "count");
  r.metric("telemetry.flight_dumps", static_cast<double>(dumps), "count");
}

// ---------------------------------------------------------------------------
// sched.

void add_case_study_sched_inputs(const sys::TrialConfig& config,
                                 SchedInputs& inputs) {
  workload::CaseStudyConfig wl = config.workload;
  wl.seed = config.trial_seed * 1000003ULL + 17;
  const auto art = analysis::build_experiment_artifacts(wl);
  for (std::size_t d = 0; d < art.tables.size(); ++d) {
    std::vector<sched::ServerParams> active;
    for (std::size_t v = 0; v < art.vm_tasks[d].size(); ++v) {
      if (art.vm_tasks[d][v].empty()) continue;
      inputs.vms.emplace_back(art.vm_tasks[d][v], art.servers[d][v]);
      active.push_back(art.servers[d][v]);
    }
    if (!active.empty()) inputs.fleets.emplace_back(art.tables[d], active);
  }
}

void measure_sched(const SchedInputs& in, Report& r) {
  std::vector<double> t4, t2, synth, mcs;
  std::size_t verdicts = 0;
  for (const auto& [tasks, server] : in.vms) {
    auto t0 = Clock::now();
    const auto local = sched::theorem4_check(server, tasks);
    t4.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    const auto synthesized = sched::synthesize_server(tasks);
    synth.push_back(seconds_since(t0) * 1e6);
    // Dual-criticality variant: the first task becomes HI with a 1.5x
    // budget (capped at its deadline), as the mixed-criticality generator
    // does for safety tasks.
    workload::TaskSet dual;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      workload::IoTaskSpec s = tasks.tasks()[i];
      if (i == 0) {
        s.criticality = workload::Criticality::kHi;
        s.wcet_hi = std::min<Slot>(
            s.deadline, static_cast<Slot>(std::ceil(1.5 * static_cast<double>(
                                                              s.wcet))));
      }
      dual.add(s);
    }
    t0 = Clock::now();
    const auto dual_verdict = sched::mcs_admission_check(server, dual, 1.5);
    mcs.push_back(seconds_since(t0) * 1e6);
    verdicts += (local ? 1 : 0) + (synthesized.ok() ? 1 : 0) +
                (dual_verdict ? 1 : 0);
  }
  for (const auto& [table, servers] : in.fleets) {
    const sched::TableSupply supply(table);
    const auto t0 = Clock::now();
    const auto global = sched::theorem2_check(supply, servers);
    t2.push_back(seconds_since(t0) * 1e6);
    verdicts += global ? 1 : 0;
  }
  std::cout << "sched: " << in.vms.size() << " task sets, " << in.fleets.size()
            << " fleets, " << verdicts << " passing verdicts\n";
  r.metric("sched.theorem4_us", median(t4), "us");
  r.metric("sched.theorem2_us", median(t2), "us");
  r.metric("sched.synthesize_us", median(synth), "us");
  r.metric("sched.mcs_check_us", median(mcs), "us");
}

void write_spans(const Options& opt, const SpanLog& spans) {
  std::filesystem::create_directories(opt.out_dir);
  const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".jsonl";
  std::ofstream os(path);
  spans.write_jsonl(os);
  std::cout << "spans: " << spans.spans().size() << " written to " << path
            << "\nself time by span name (ms):\n";
  for (const auto& [name, ns] : spans.self_ns_by_name())
    std::cout << "  " << name << " " << static_cast<double>(ns) / 1e6 << "\n";
}

}  // namespace perfbench

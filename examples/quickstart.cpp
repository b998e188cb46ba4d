// Quickstart: build an I/O-GUARD hypervisor for a small workload, submit
// run-time I/O jobs, and watch the two-layer scheduler execute them.
//
//   $ ./build/examples/quickstart [--jobs=N] [--telemetry-out=DIR]
//         [--checkpoint=FILE [--resume]]
//
// Walks through the public API end to end:
//   1. describe I/O tasks (workload::TaskSet / CaseStudyWorkload),
//   2. let the design layer build the Time Slot Table and periodic servers,
//   3. run the slot-level hypervisor and collect completions,
//   4. fan a batch of trials out over worker threads (--jobs=N; results are
//      identical for any N) under crash-safe supervision when --checkpoint
//      is given (SIGINT/SIGTERM drain gracefully; --resume restores
//      finished trials from the journal),
//   5. (with --telemetry-out) run one instrumented trial and export the
//      telemetry artifacts: trace.perfetto.json (open in ui.perfetto.dev),
//      metrics.prom (Prometheus text exposition) and summary.json.
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/checksum.hpp"
#include "common/cli.hpp"
#include "common/interrupt.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "core/hypervisor.hpp"
#include "system/checkpoint.hpp"
#include "system/parallel.hpp"
#include "system/runner.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/spans.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

using namespace ioguard;

namespace {

CliSpec make_spec() {
  CliSpec spec("end-to-end tour of the public API on a small workload");
  spec.flag_int("jobs", 0, "batch worker threads; 0 = auto")
      .flag("checkpoint", "",
            "journal each finished batch trial to this file (crash-safe)")
      .flag_switch("resume",
                   "restore finished batch trials from --checkpoint")
      .flag("telemetry-out", "",
            "run one instrumented trial and write trace.perfetto.json, "
            "metrics.prom and summary.json to this directory")
      .flag("flight-recorder", "",
            "on the instrumented trial, dump trace + scheduler state to this "
            "directory whenever a deadline miss or fault recovery fires")
      .flag_switch("profile",
                   "collect busy/stall/quiescent cycle attribution on the "
                   "instrumented trial");
  return spec;
}

Status run(const CliArgs& args) {
  std::cout << "I/O-GUARD quickstart\n====================\n\n";

  // 1. A small automotive workload: 4 VMs, 60% target utilization per
  //    device, 40% of tasks pre-loaded into the P-channel.
  workload::CaseStudyConfig wcfg;
  wcfg.num_vms = 4;
  wcfg.target_utilization = 0.6;
  wcfg.preload_fraction = 0.4;
  wcfg.seed = 1;
  const auto wl = workload::build_case_study(wcfg);

  std::cout << "workload: " << wl.tasks.size() << " I/O tasks ("
            << wl.predefined().size() << " pre-defined, "
            << wl.runtime().size() << " run-time), utilization "
            << fmt_double(wl.tasks.utilization(), 2) << " across "
            << wl.tasks.devices().size() << " devices\n\n";

  // 2. Build the hypervisor: per device this constructs the Time Slot Table
  //    (offline slot-EDF) and synthesizes periodic servers via Theorems 2/4.
  core::HypervisorConfig hcfg;
  hcfg.num_vms = wcfg.num_vms;
  core::Hypervisor hyp(wl, hcfg);

  TextTable design({"device", "H", "F", "table", "servers (Pi,Theta)"});
  for (const auto& d : hyp.designs()) {
    std::string servers;
    for (const auto& s : d.servers) {
      if (!servers.empty()) servers += " ";
      servers.append("(").append(std::to_string(s.pi)).append(",");
      servers.append(std::to_string(s.theta)).append(")");
    }
    design.add(std::string(d.spec.name), d.hyperperiod, d.free_slots,
               std::string(d.table_feasible && d.servers_feasible ? "admitted"
                                                                  : "fallback"),
               servers);
  }
  design.render(std::cout);
  std::cout << "fully admitted: " << (hyp.fully_admitted() ? "yes" : "no")
            << "\n\n";

  // 3. Drive it: release the run-time jobs of the first 50 ms and tick the
  //    hypervisor slot by slot (1 slot = 10 us).
  workload::ArrivalConfig acfg;
  acfg.horizon = 5000;
  acfg.seed = 7;
  const auto trace = workload::generate_trace(wl.runtime(), acfg);

  std::vector<iodev::Completion> completions;
  std::size_t next = 0;
  std::size_t submitted = 0;
  for (Slot now = 0; now < acfg.horizon; ++now) {
    while (next < trace.size() && trace[next].release <= now) {
      if (hyp.submit(trace[next], now)) ++submitted;
      ++next;
    }
    hyp.tick_slot(now, completions);
  }

  std::size_t on_time = 0;
  for (const auto& c : completions)
    if (!c.missed()) ++on_time;

  std::cout << "submitted " << submitted << " run-time jobs; "
            << completions.size() << " completions (P+R channel), " << on_time
            << " on time, " << completions.size() - on_time << " late, "
            << hyp.dropped_jobs() << " dropped\n";

  const auto& eth = hyp.manager(DeviceId{0});
  std::cout << "ethernet manager: " << eth.busy_slots() << " busy slots, "
            << eth.runtime_jobs_completed() << " R-channel jobs, "
            << eth.pchannel().jobs_completed() << " P-channel jobs\n";

  // 4. Batch evaluation: the same workload, 8 independent trials fanned out
  //    over a thread pool. Per-trial seeds come from mix_seed and the merge
  //    happens in trial-index order, so the aggregate below is bit-identical
  //    whether --jobs is 1 or 16 -- and whether the batch ran in one piece
  //    or was interrupted and resumed from a --checkpoint journal.
  {
    const auto jobs = static_cast<std::size_t>(args.get_int("jobs"));
    const std::string checkpoint_path = args.get("checkpoint");
    const bool resume = args.get_bool("resume");
    if (resume && checkpoint_path.empty())
      return InvalidArgumentError("--resume requires --checkpoint=PATH");
    sys::ParallelRunner runner(jobs);
    sys::BatchTiming timing;
    const std::size_t batch_trials = 8;

    std::unique_ptr<sys::CheckpointJournal> journal;
    if (!checkpoint_path.empty()) {
      sys::CheckpointMeta meta;
      meta.config_echo = "quickstart batch vms=" +
                         std::to_string(wcfg.num_vms) +
                         " trials=" + std::to_string(batch_trials) +
                         " seed=" + std::to_string(wcfg.seed);
      meta.fingerprint = fnv1a64(meta.config_echo);
      meta.planned_trials = batch_trials;
      IOGUARD_ASSIGN_OR_RETURN(
          journal, sys::CheckpointJournal::open(checkpoint_path, meta, resume));
      if (resume)
        std::cout << "\nresuming batch: " << journal->loaded()
                  << " journaled trial record(s)\n";
    }

    InterruptGuard interrupt_guard;
    sys::SupervisionPolicy policy;
    policy.stop = InterruptGuard::flag();
    policy.journal = journal.get();
    policy.point_key = sys::checkpoint_point_key(
        sys::SystemKind::kIoGuard, wcfg.preload_fraction, wcfg.num_vms,
        wcfg.target_utilization);

    const sys::BatchResult batch = runner.run_supervised(
        batch_trials,
        [&](std::size_t t) {
          sys::TrialConfig tc;
          tc.kind = sys::SystemKind::kIoGuard;
          tc.workload = wcfg;
          tc.min_jobs_per_task = 10;
          tc.trial_seed = mix_seed(wcfg.seed, /*stream=*/0, t);
          return tc;
        },
        policy, /*metrics=*/nullptr, &timing);
    IOGUARD_RETURN_IF_ERROR(batch.journal_error);

    std::size_t batch_successes = 0;
    for (std::size_t t = 0; t < batch.results.size(); ++t) {
      if (batch.outcomes[t] == sys::TrialOutcome::kAbandoned ||
          batch.outcomes[t] == sys::TrialOutcome::kSkipped)
        continue;
      if (batch.results[t].success()) ++batch_successes;
    }
    std::cout << "\nbatch of " << batch_trials << " trials on "
              << runner.jobs() << " worker(s): " << batch_successes
              << " successes, " << fmt_double(timing.trials_per_second(), 1)
              << " trials/s, speedup "
              << fmt_double(timing.speedup_estimate(), 2)
              << "x over sequential\n";
    if (journal)
      std::cout << "checkpoint: " << batch.executed() << " executed, "
                << batch.restored << " restored\n";
    if (batch.interrupted)
      return CancelledError(
          "batch interrupted" +
          std::string(journal ? "; re-run with --resume to continue" : ""));
  }

  // 5. Telemetry export: run one fully instrumented trial through the system
  //    runner and write the three artifacts. Off by default -- the plain
  //    quickstart run records nothing.
  if (!args.get("telemetry-out").empty()) {
    const std::filesystem::path dir = args.get("telemetry-out");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
      return UnavailableError("--telemetry-out=" + dir.string() + ": " +
                              ec.message());

    const std::string flight_dir = args.get("flight-recorder");
    if (!flight_dir.empty()) {
      std::filesystem::create_directories(flight_dir, ec);
      if (ec)
        return UnavailableError("--flight-recorder=" + flight_dir + ": " +
                                ec.message());
    }

    core::EventTrace events(1 << 20);
    telemetry::MetricsRegistry metrics;
    sys::TrialConfig tc;
    tc.kind = sys::SystemKind::kIoGuard;
    tc.workload = wcfg;
    tc.min_jobs_per_task = 10;
    tc.collect_response_times = true;
    tc.collect_stage_latencies = true;
    tc.collect_jitter = true;
    tc.collect_profile = args.get_bool("profile");
    tc.flight_dir = flight_dir;
    tc.trace = &events;
    tc.metrics = &metrics;
    auto result = sys::run_trial(tc);

    // Publish atomically (temp file + rename): readers never observe a
    // torn artifact, even if this process dies mid-write.
    {
      std::vector<telemetry::ProfileCounterTrack> counters;
      for (const sys::ComponentProfile& c : result.profile)
        counters.push_back({c.name, c.busy_slots, c.stall_slots,
                            c.quiescent_slots});
      AtomicFileWriter out(dir / "trace.perfetto.json");
      telemetry::write_perfetto_json(out.stream(), events, {}, counters);
      IOGUARD_RETURN_IF_ERROR(out.commit());
    }
    {
      AtomicFileWriter out(dir / "metrics.prom");
      telemetry::write_prometheus(out.stream(), metrics);
      IOGUARD_RETURN_IF_ERROR(out.commit());
    }
    {
      AtomicFileWriter out(dir / "summary.json");
      sys::write_trial_summary_json(out.stream(), tc, result);
      IOGUARD_RETURN_IF_ERROR(out.commit());
    }

    std::cout << "\ninstrumented trial: " << events.total_recorded()
              << " trace events over " << result.horizon << " slots\n";
    if (!flight_dir.empty())
      std::cout << "flight recorder: " << result.flight_dumps
                << " dump(s) in " << flight_dir << "\n";
    if (tc.collect_profile) {
      TextTable profile_table(
          {"component", "busy", "stall", "quiescent", "total"});
      for (const sys::ComponentProfile& c : result.profile)
        profile_table.add(c.name, c.busy_slots, c.stall_slots,
                          c.quiescent_slots, c.total_slots());
      profile_table.render(std::cout);
    }
    auto breakdown = telemetry::fold_stages(telemetry::collect_spans(events));
    telemetry::print_stage_breakdown(std::cout, breakdown);
    std::cout << "telemetry written to " << dir.string()
              << "/{trace.perfetto.json, metrics.prom, summary.json}\n"
              << "open trace.perfetto.json in https://ui.perfetto.dev\n";
  }
  return OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  const CliSpec spec = make_spec();
  const auto args = spec.parse(argc, argv);
  if (!args.ok()) {
    std::cerr << "error: " << args.status() << "\n\n"
              << spec.help_text(argc > 0 ? argv[0] : "quickstart");
    return exit_code(args.status());
  }
  if (args->help_requested()) {
    std::cout << spec.help_text(args->program());
    return 0;
  }
  const Status status = run(*args);
  if (!status.ok()) std::cerr << "error: " << status << "\n";
  return exit_code(status);
}

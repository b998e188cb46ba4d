#include "replay.hpp"

#include <algorithm>
#include <memory>
#include <queue>
#include <vector>

#include "common/jitter.hpp"
#include "core/hypervisor.hpp"
#include "faults/injector.hpp"
#include "iodev/fifo_controller.hpp"
#include "system/stages.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using namespace ioguard;

void LayerCounters::merge(const LayerCounters& o) {
  issue_tick.merge(o.issue_tick);
  vmm_tick.merge(o.vmm_tick);
  transit_sample.merge(o.transit_sample);
  hyp_submit.merge(o.hyp_submit);
  hyp_tick.merge(o.hyp_tick);
  hyp_next_busy.merge(o.hyp_next_busy);
  hyp_note_skip.merge(o.hyp_note_skip);
  fifo_enqueue.merge(o.fifo_enqueue);
  fifo_tick.merge(o.fifo_tick);
  fifo_next_busy.merge(o.fifo_next_busy);
  horizon_slots += o.horizon_slots;
  hyp_horizon_slots += o.hyp_horizon_slots;
  hyp_skipped_slots += o.hyp_skipped_slots;
  jobs += o.jobs;
  fifo_rejected += o.fifo_rejected;
  pool_dropped += o.pool_dropped;
  translations += o.translations;
  loop_self_ns += o.loop_self_ns;
}

std::uint64_t LayerCounters::call_ns() const {
  return issue_tick.ns + vmm_tick.ns + transit_sample.ns + hyp_submit.ns +
         hyp_tick.ns + hyp_next_busy.ns + hyp_note_skip.ns + fifo_enqueue.ns +
         fifo_tick.ns + fifo_next_busy.ns;
}

namespace {

struct InFlight {
  Slot arrival;
  workload::Job job;
};
struct ArriveLater {
  bool operator()(const InFlight& a, const InFlight& b) const {
    return a.arrival != b.arrival ? a.arrival > b.arrival
                                  : a.job.id.value > b.job.id.value;
  }
};

struct Outcome {
  Slot deadline = 0;
  bool counted = false;
  bool critical = false;
  bool hi = false;
  bool on_time = false;
  std::uint32_t payload = 0;
};

}  // namespace

sys::TrialResult replay_trial(const sys::TrialConfig& config,
                              LayerCounters& c, SpanLog& spans,
                              std::uint64_t request) {
  const int trial_span = spans.open("trial", request);
  const bool ioguard = config.kind == sys::SystemKind::kIoGuard;

  // ---- build + trace (workload) -------------------------------------------
  int span = spans.open("build", request, trial_span);
  workload::CaseStudyConfig wl_cfg = config.workload;
  if (!ioguard) wl_cfg.preload_fraction = 0.0;
  wl_cfg.seed = config.trial_seed * 1000003ULL + 17;
  const auto wl = workload::build_case_study(wl_cfg);
  spans.close(span);

  sys::TrialResult result;
  const Slot horizon =
      config.horizon > 0
          ? config.horizon
          : workload::horizon_for_min_jobs(wl.tasks, config.min_jobs_per_task);
  result.horizon = horizon;

  span = spans.open("trace", request, trial_span);
  workload::ArrivalConfig arr;
  arr.horizon = horizon;
  arr.seed = config.trial_seed * 2654435761ULL + 99;
  const auto trace = workload::generate_trace(wl.tasks, arr);
  spans.close(span);
  c.jobs += trace.size();

  // ---- design: the system under test (core / iodev / system) --------------
  span = spans.open("design", request, trial_span);
  std::vector<std::uint8_t> critical(wl.tasks.size(), 0);
  std::vector<std::uint8_t> hi(wl.tasks.size(), 0);
  for (const auto& t : wl.tasks.tasks()) {
    critical[t.id.value] = t.cls != workload::TaskClass::kSynthetic ? 1 : 0;
    hi[t.id.value] = t.hi_criticality() ? 1 : 0;
  }
  const std::size_t num_vms = wl_cfg.num_vms;
  const sys::Calibration& cal = config.cal;
  std::vector<sys::IssueStage> issue;
  issue.reserve(num_vms);
  for (std::size_t v = 0; v < num_vms; ++v)
    issue.emplace_back(sys::issue_cycles(cal, config.kind),
                       cal.cycles_per_slot);
  std::unique_ptr<sys::VmmStage> vmm;
  if (config.kind == sys::SystemKind::kRtXen)
    vmm = std::make_unique<sys::VmmStage>(cal, num_vms,
                                          config.trial_seed ^ 0xabc);
  sys::TransitModel request_transit(cal, config.kind, num_vms,
                                    wl_cfg.target_utilization,
                                    config.trial_seed ^ 0x111);
  sys::TransitModel response_transit(cal, config.kind, num_vms,
                                     wl_cfg.target_utilization,
                                     config.trial_seed ^ 0x222);
  std::unique_ptr<faults::FaultInjector> injector;
  if (!config.faults.empty())
    injector = std::make_unique<faults::FaultInjector>(config.faults,
                                                       config.trial_seed);
  std::vector<iodev::FifoController> fifos;
  std::unique_ptr<core::Hypervisor> hyp;
  if (ioguard) {
    core::HypervisorConfig hc;
    hc.num_vms = num_vms;
    hc.pool_capacity = cal.pool_capacity;
    hc.dispatch_overhead_slots = cal.dispatch_overhead_slots;
    hc.policy = config.gsched_policy;
    hc.translator.wcet_cycles = cal.translation_wcet_cycles;
    hc.injector = injector.get();
    hc.resilience = config.resilience;
    hc.mode_switch = config.mode_switch;
    hyp = std::make_unique<core::Hypervisor>(wl, hc);
    result.admitted = hyp->fully_admitted();
    if (config.trace) hyp->set_tracer(config.trace);
    if (!config.stepped) hyp->set_slot_skipping(true);
  } else {
    for (std::size_t d = 0; d < workload::kCaseStudyDeviceCount; ++d) {
      fifos.emplace_back(cal.device_fifo_capacity,
                         cal.dispatch_overhead_slots);
      fifos.back().set_fault_injector(injector.get(), d);
    }
  }
  std::unique_ptr<JitterRecorder> jitter;
  if (config.collect_jitter) {
    jitter = std::make_unique<JitterRecorder>(num_vms);
    if (hyp) hyp->set_jitter_recorder(jitter.get());
    for (auto& f : fifos) f.set_jitter_recorder(jitter.get());
  }

  std::vector<Outcome> outcomes(trace.size());
  std::uint64_t bytes_on_time = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& j = trace[i];
    const bool pchannel_job = hyp && hyp->pchannel_task(j.task);
    outcomes[i].deadline = j.absolute_deadline;
    outcomes[i].counted = !pchannel_job && j.absolute_deadline <= horizon;
    outcomes[i].critical = critical[j.task.value] != 0;
    outcomes[i].hi = hi[j.task.value] != 0;
    outcomes[i].payload = j.payload_bytes;
  }
  spans.close(span);

  auto record_completion = [&](const iodev::Completion& done, Slot finish) {
    if (hyp && hyp->pchannel_task(done.job.task)) {
      if (done.job.absolute_deadline <= horizon) {
        ++result.jobs_counted;
        if (finish <= done.job.absolute_deadline) {
          ++result.jobs_on_time;
          bytes_on_time += done.job.payload_bytes;
        } else {
          ++result.misses;
          if (critical[done.job.task.value] != 0) ++result.critical_misses;
          if (hi[done.job.task.value] != 0) ++result.mcs.hi_misses;
        }
      }
    } else if (done.job.id.value < outcomes.size()) {
      Outcome& o = outcomes[done.job.id.value];
      if (o.counted && finish <= o.deadline) {
        o.on_time = true;
        bytes_on_time += o.payload;
      }
    }
  };

  // ---- slot loop -----------------------------------------------------------
  const int loop_span = spans.open("slot_loop", request, trial_span);
  const std::uint64_t calls_before = c.call_ns();
  std::priority_queue<InFlight, std::vector<InFlight>, ArriveLater> transit_q;
  std::vector<workload::Job> issued, vmm_done;
  std::vector<iodev::Completion> completions;
  std::size_t next_release = 0;
  std::uint64_t skipped_total = 0;
  auto to_transit = [&](const workload::Job& j, Slot now) {
    const Slot delay = timed(c.transit_sample, [&] {
      return request_transit.sample();
    });
    transit_q.push(InFlight{now + delay, j});
  };
  for (Slot now = 0; now < horizon;) {
    while (next_release < trace.size() && trace[next_release].release <= now) {
      const auto& j = trace[next_release++];
      if (!(hyp && hyp->pchannel_task(j.task))) issue[j.vm.value].push(j);
    }
    issued.clear();
    for (auto& stage : issue)
      timed(c.issue_tick, [&] { stage.tick_slot(issued); });
    for (const auto& j : issued) {
      if (vmm) {
        vmm->push(j, now);
      } else {
        to_transit(j, now);
      }
    }
    if (vmm) {
      vmm_done.clear();
      timed(c.vmm_tick, [&] { vmm->tick_slot(now, vmm_done); });
      for (const auto& j : vmm_done) to_transit(j, now);
    }
    while (!transit_q.empty() && transit_q.top().arrival <= now) {
      const workload::Job j = transit_q.top().job;
      transit_q.pop();
      if (injector && injector->drop_packet(j.device.value)) {
        ++result.faults.transit_drops;
        if (config.trace) {
          core::TraceEvent ev;
          ev.slot = now;
          ev.kind = core::TraceEventKind::kFaultInject;
          ev.device = j.device;
          ev.vm = j.vm;
          ev.task = j.task;
          ev.job = j.id;
          ev.aux = static_cast<std::uint32_t>(faults::FaultKind::kLinkFlitLoss);
          config.trace->record(ev);
        }
        continue;
      }
      const bool accepted =
          hyp ? timed(c.hyp_submit, [&] { return hyp->submit(j, now); })
              : timed(c.fifo_enqueue,
                      [&] { return fifos[j.device.value].enqueue(j, now); });
      if (!accepted) ++result.dropped;
    }
    completions.clear();
    if (hyp) {
      timed(c.hyp_tick, [&] { hyp->tick_slot(now, completions); });
    } else {
      for (auto& f : fifos) {
        auto done = timed(c.fifo_tick, [&] { return f.tick_slot(now); });
        if (done) completions.push_back(*done);
      }
    }
    for (const auto& done : completions) {
      const Slot finish = done.completed_at + timed(c.transit_sample, [&] {
                            return response_transit.sample();
                          });
      record_completion(done, finish);
    }

    Slot next = now + 1;
    if (!config.stepped) {
      bool software_busy = vmm && !vmm->idle();
      for (const auto& stage : issue) software_busy |= !stage.idle();
      if (!software_busy) {
        Slot wake = horizon;
        if (next_release < trace.size())
          wake = std::min(wake, trace[next_release].release);
        if (!transit_q.empty()) wake = std::min(wake, transit_q.top().arrival);
        if (hyp) {
          wake = std::min(wake, timed(c.hyp_next_busy, [&] {
                            return hyp->next_busy_slot(next);
                          }));
        } else {
          for (const auto& f : fifos)
            wake = std::min(wake, timed(c.fifo_next_busy, [&] {
                              return f.next_busy_slot(next);
                            }));
        }
        if (wake > next) {
          const Slot skipped = std::min(wake, horizon) - next;
          if (hyp) {
            timed(c.hyp_note_skip, [&] { hyp->note_skipped_slots(skipped); });
          } else {
            for (auto& f : fifos) f.note_skipped_slots(skipped);
          }
          skipped_total += skipped;
          next += skipped;
        }
      }
    }
    now = next;
  }
  spans.close(loop_span);
  {
    const Span& s = spans.spans()[static_cast<std::size_t>(loop_span)];
    const std::uint64_t in_calls = c.call_ns() - calls_before;
    const std::uint64_t loop_ns = s.end_ns - s.start_ns;
    c.loop_self_ns += loop_ns > in_calls ? loop_ns - in_calls : 0;
  }
  c.horizon_slots += horizon;
  if (hyp) {
    c.hyp_horizon_slots += horizon;
    c.hyp_skipped_slots += skipped_total;
  }

  // ---- tally ---------------------------------------------------------------
  span = spans.open("tally", request, trial_span);
  for (const auto& o : outcomes) {
    if (!o.counted) continue;
    ++result.jobs_counted;
    if (o.on_time) {
      ++result.jobs_on_time;
    } else {
      ++result.misses;
      if (o.critical) ++result.critical_misses;
      if (o.hi) ++result.mcs.hi_misses;
    }
  }
  const double seconds =
      cycles_to_seconds(slots_to_cycles(horizon, cal.cycles_per_slot));
  result.goodput_bytes_per_s = static_cast<double>(bytes_on_time) / seconds;
  Slot busy = 0;
  const std::size_t n_dev = workload::kCaseStudyDeviceCount;
  if (hyp) {
    for (std::size_t d = 0; d < n_dev; ++d) {
      const auto& m = hyp->manager(DeviceId{static_cast<std::uint32_t>(d)});
      busy += m.busy_slots();
      c.translations += m.request_translator().translations();
    }
    c.pool_dropped += hyp->dropped_jobs();
  } else {
    for (const auto& f : fifos) {
      busy += f.busy_slots();
      c.fifo_rejected += f.rejected();
    }
  }
  result.device_busy_frac =
      static_cast<double>(busy) / static_cast<double>(horizon * n_dev);
  if (injector) {
    result.faults.injected_total = injector->total_injected();
    if (hyp) {
      result.faults.watchdog_aborts = hyp->watchdog_aborts();
      result.faults.retries = hyp->retries_scheduled();
    }
  }
  if (hyp && hyp->mode_controller() != nullptr)
    result.mcs.switches_to_hi = hyp->mode_controller()->switches_to_hi();
  spans.close(span);
  spans.close(trial_span);
  return result;
}

std::string tallies_diff(const sys::TrialResult& a, const sys::TrialResult& b) {
  if (a.jobs_counted != b.jobs_counted) return "jobs_counted";
  if (a.jobs_on_time != b.jobs_on_time) return "jobs_on_time";
  if (a.misses != b.misses) return "misses";
  if (a.critical_misses != b.critical_misses) return "critical_misses";
  if (a.dropped != b.dropped) return "dropped";
  if (a.device_busy_frac != b.device_busy_frac) return "device_busy_frac";
  if (a.goodput_bytes_per_s != b.goodput_bytes_per_s) return "goodput";
  if (a.admitted != b.admitted) return "admitted";
  if (a.faults.injected_total != b.faults.injected_total)
    return "faults.injected_total";
  if (a.faults.watchdog_aborts != b.faults.watchdog_aborts)
    return "faults.watchdog_aborts";
  if (a.faults.retries != b.faults.retries) return "faults.retries";
  if (a.faults.transit_drops != b.faults.transit_drops)
    return "faults.transit_drops";
  if (a.mcs.switches_to_hi != b.mcs.switches_to_hi) return "mcs.switches_to_hi";
  if (a.mcs.hi_misses != b.mcs.hi_misses) return "mcs.hi_misses";
  return "";
}

}  // namespace perfbench

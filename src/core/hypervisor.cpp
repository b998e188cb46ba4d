#include "core/hypervisor.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

#include "common/check.hpp"
#include "workload/automotive.hpp"

namespace ioguard::core {

const iodev::DeviceSpec& case_study_device_spec(DeviceId id) {
  using workload::CaseStudyDevice;
  switch (static_cast<CaseStudyDevice>(id.value)) {
    case CaseStudyDevice::kEthernet:
      return iodev::device_spec(iodev::DeviceKind::kEthernet);
    case CaseStudyDevice::kFlexRay:
      return iodev::device_spec(iodev::DeviceKind::kFlexRay);
    case CaseStudyDevice::kCan:
      return iodev::device_spec(iodev::DeviceKind::kCan);
    case CaseStudyDevice::kSpi:
      return iodev::device_spec(iodev::DeviceKind::kSpi);
  }
  IOGUARD_CHECK_MSG(false, "unknown case-study device");
  __builtin_unreachable();
}

namespace {

/// Utilization-proportional fallback servers when Theorem 2/4 synthesis
/// fails (over-utilized configurations the evaluation sweeps through).
std::vector<sched::ServerParams> fallback_servers(
    const std::vector<workload::TaskSet>& vm_tasks,
    const sched::TimeSlotTable& table) {
  const double free_bandwidth = static_cast<double>(table.free_slots()) /
                                static_cast<double>(table.hyperperiod());
  std::vector<sched::ServerParams> servers;
  servers.reserve(vm_tasks.size());
  double total_u = 0.0;
  for (const auto& ts : vm_tasks) total_u += ts.utilization();
  constexpr Slot kPi = 50;
  for (const auto& ts : vm_tasks) {
    if (ts.empty() || total_u <= 0.0) {
      servers.push_back(sched::ServerParams{kPi, 0});
      continue;
    }
    // Split the available free bandwidth proportionally to VM demand.
    const double share = ts.utilization() / total_u *
                         std::min(1.0, free_bandwidth);
    auto theta = static_cast<Slot>(
        std::ceil(share * static_cast<double>(kPi)));
    theta = std::clamp<Slot>(theta, ts.utilization() > 0 ? 1 : 0, kPi);
    servers.push_back(sched::ServerParams{kPi, theta});
  }
  return servers;
}

}  // namespace

CaseStudyDevice design_case_study_device(const workload::CaseStudyWorkload& wl,
                                         DeviceId device, std::size_t num_vms,
                                         Slot dispatch_overhead_slots) {
  auto predefined = wl.predefined().filter_device(device);
  workload::TaskSet demoted;
  auto build = sched::build_time_slot_table(predefined);
  std::string table_failure = build.feasible ? "" : build.failure;
  while (!build.feasible && !predefined.empty()) {
    std::vector<workload::IoTaskSpec> remaining = predefined.tasks();
    std::size_t victim = 0;
    for (std::size_t i = 1; i < remaining.size(); ++i) {
      const auto key = [](const workload::IoTaskSpec& t) {
        return std::make_pair(static_cast<int>(t.cls), t.utilization());
      };
      if (key(remaining[i]) > key(remaining[victim])) victim = i;
    }
    workload::IoTaskSpec moved = remaining[victim];
    moved.kind = workload::TaskKind::kRuntime;
    demoted.add(std::move(moved));
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(victim));
    predefined = workload::TaskSet(std::move(remaining));
    build = sched::build_time_slot_table(predefined);
  }
  IOGUARD_CHECK_MSG(build.feasible, "empty table must be feasible");

  auto runtime = wl.runtime().filter_device(device);
  for (const auto& t : demoted.tasks()) runtime.add(t);
  std::vector<workload::TaskSet> vm_tasks;
  vm_tasks.reserve(num_vms);
  for (std::size_t v = 0; v < num_vms; ++v) {
    workload::TaskSet charged;
    const auto vm_set = runtime.filter_vm(VmId{static_cast<std::uint32_t>(v)});
    for (auto t : vm_set.tasks()) {
      t.wcet = std::min(t.deadline, t.wcet + dispatch_overhead_slots);
      charged.add(std::move(t));
    }
    vm_tasks.push_back(std::move(charged));
  }
  auto system = sched::design_system(sched::TableSupply(build.table), vm_tasks);
  return CaseStudyDevice{std::move(predefined),    std::move(build.table),
                         std::move(table_failure), std::move(demoted),
                         std::move(vm_tasks),      std::move(system)};
}

Hypervisor::Hypervisor(const workload::CaseStudyWorkload& wl,
                       const HypervisorConfig& config)
    : wake_(workload::kCaseStudyDeviceCount, 0),
      streams_(workload::kCaseStudyDeviceCount) {
  const std::size_t n_dev = workload::kCaseStudyDeviceCount;
  managers_.reserve(n_dev);
  designs_.reserve(n_dev);

  if (config.mode_switch.enabled) {
    mode_ = std::make_unique<ModeController>(config.num_vms,
                                             config.mode_switch);
    // HI-criticality bitmap over every task id (built before the managers,
    // which keep a pointer into it). Pre-defined tasks execute on the
    // immune P-channel; listing them here is harmless and keeps demoted
    // HI tasks protected on the R-channel too.
    auto mark = [this](const workload::TaskSet& ts) {
      for (const auto& t : ts.tasks()) {
        if (!t.hi_criticality()) continue;
        if (t.id.value >= hi_tasks_.size()) hi_tasks_.resize(t.id.value + 1, 0);
        hi_tasks_[t.id.value] = 1;
      }
    };
    mark(wl.predefined());
    mark(wl.runtime());
  }

  for (std::size_t d = 0; d < n_dev; ++d) {
    const DeviceId dev{static_cast<std::uint32_t>(d)};
    CaseStudyDevice built = design_case_study_device(
        wl, dev, config.num_vms, config.dispatch_overhead_slots);
    DeviceDesign design;
    design.device = dev;
    design.spec = case_study_device_spec(dev);
    design.table_feasible = built.demoted.empty();
    if (!design.table_feasible) {
      design.note = "slot table: " + built.table_failure + " (demoted:";
      for (const auto& t : built.demoted.tasks()) {
        design.note += " " + t.name;
        demotions_.push_back(Demotion{dev, t.vm, t.id});
      }
      design.note += ")";
    }
    for (const auto& t : built.predefined.tasks()) {
      if (t.id.value >= pchannel_tasks_.size())
        pchannel_tasks_.resize(t.id.value + 1, 0);
      pchannel_tasks_[t.id.value] = 1;
    }
    design.hyperperiod = built.table.hyperperiod();
    design.free_slots = built.table.free_slots();

    // Infeasible server designs run on fallback budgets: the hardware still
    // runs, the analysis just gives no guarantee.
    design.servers_feasible = built.system.feasible;
    if (built.system.feasible) {
      design.servers = built.system.servers;
    } else {
      design.servers = fallback_servers(built.vm_tasks, built.table);
      if (!design.note.empty()) design.note += "; ";
      design.note += "servers: " + built.system.reason + " (fallback budgets)";
    }

    VManagerConfig mc;
    mc.num_vms = config.num_vms;
    mc.pool_capacity = config.pool_capacity;
    mc.dispatch_overhead_slots = config.dispatch_overhead_slots;
    mc.policy = config.policy;
    mc.translator = config.translator;
    mc.injector = config.injector;
    mc.device_index = d;
    mc.resilience = config.resilience;
    mc.mode = mode_.get();
    mc.hi_tasks = mode_ != nullptr ? &hi_tasks_ : nullptr;
    managers_.push_back(std::make_unique<VirtManager>(
        design.spec, std::move(built.predefined), std::move(built.table),
        design.servers, mc));
    designs_.push_back(std::move(design));
  }
}

bool Hypervisor::submit(const workload::Job& job, Slot now) {
  IOGUARD_CHECK(job.device.value < managers_.size());
  // New work can only bring the target manager's wake forward: it must be
  // ticked this very slot (submissions happen before the slot's tick).
  Slot& wake = wake_[job.device.value];
  wake = std::min(wake, now);
  return managers_[job.device.value]->submit(job, now);
}

void Hypervisor::set_slot_skipping(bool on) {
  skip_idle_ = on;
  wake_.assign(managers_.size(), 0);
}

void Hypervisor::tick_slot(Slot now, std::vector<iodev::Completion>& out) {
  if (skip_idle_) {
    tick_calendar(now, out);
    return;
  }
  for (auto& m : managers_) m->tick_slot(now, out);
  advance_mode(now);
}

void Hypervisor::tick_calendar(Slot now, std::vector<iodev::Completion>& out) {
  // A manager whose wake hint is still in the future would tick as a pure
  // ++quiescent no-op, so attribute the slot directly and skip the dense
  // tick. Managers are visited in device order either way, so `out` is
  // byte-identical to the dense path.
  for (std::size_t d = 0; d < managers_.size(); ++d) {
    if (wake_[d] > now) {
      managers_[d]->note_skipped_slots(1);
      continue;
    }
    managers_[d]->tick_slot(now, out);
    wake_[d] = managers_[d]->next_busy_slot(now + 1);
  }
  advance_mode(now);
}

void Hypervisor::advance(Slot from, Slot to,
                         std::vector<iodev::Completion>& out) {
  const bool lockstep =
      mode_ != nullptr ||
      std::any_of(managers_.begin(), managers_.end(),
                  [](const auto& m) { return m->needs_lockstep(); });
  if (!lockstep) {
    streams_.clear();
    for (std::size_t d = 0; d < managers_.size(); ++d)
      managers_[d]->advance(from, to, streams_.device(d));
    streams_.merge_into(out);
    return;
  }
  for (Slot s = from; s < to;) {
    tick_calendar(s, out);
    // Jump the stretch in which no manager can act and no mode transition
    // falls due.
    const Slot next = s + 1;
    const Slot wake = std::min(to, calendar_wake(next));
    if (wake > next) note_skipped_slots(wake - next);
    s = std::max(next, wake);
  }
}

void Hypervisor::advance_mode(Slot now) {
  if (mode_ == nullptr) return;
  mode_to_hi_.clear();
  mode_to_lo_.clear();
  mode_->advance(now, mode_to_hi_, mode_to_lo_);
  for (std::size_t v : mode_to_hi_) {
    // Sample the whole LO backlog across the block before any shedding so
    // the transition record can prove atomicity (MCS005: a record with
    // lo_pending > jobs_shed is a forged/partial switch).
    std::uint64_t pending = 0;
    for (auto& m : managers_) pending += m->lo_pending(v);
    std::uint64_t shed = 0;
    for (auto& m : managers_) shed += m->apply_mode_switch(v);
    mode_->finalize_switch(v, pending, shed);
    if (tracer_ != nullptr)
      tracer_->record(TraceEvent{
          now, TraceEventKind::kModeSwitch, DeviceId{},
          VmId{static_cast<std::uint32_t>(v)}, TaskId{}, JobId{},
          static_cast<std::uint32_t>(shed)});
  }
  for (std::size_t v : mode_to_lo_) {
    for (auto& m : managers_) m->apply_mode_recovery(v);
    if (tracer_ != nullptr)
      tracer_->record(TraceEvent{now, TraceEventKind::kModeRecover, DeviceId{},
                                 VmId{static_cast<std::uint32_t>(v)}, TaskId{},
                                 JobId{}, 0});
  }
  // A switch changed what the managers will do with their queues: wake them
  // next slot so the calendar cannot coast on a pre-switch hint.
  if (!(mode_to_hi_.empty() && mode_to_lo_.empty()))
    for (auto& w : wake_) w = std::min(w, now + 1);
}

Slot Hypervisor::next_busy_slot(Slot from) const {
  if (skip_idle_) return calendar_wake(from);
  Slot wake = mode_due(from);
  for (const auto& m : managers_)
    wake = std::min(wake, m->next_busy_slot(from));
  return wake;
}

Slot Hypervisor::calendar_wake(Slot from) const {
  Slot wake = mode_due(from);
  for (const Slot w : wake_) wake = std::min(wake, std::max(w, from));
  return wake;
}

Slot Hypervisor::mode_due(Slot from) const {
  // An armed switch or due recovery is a reason to tick even when every
  // channel is idle: time must not jump past the hysteresis deadline
  // (event/stepped byte-equality).
  if (mode_ == nullptr) return kNeverSlot;
  const Slot due = mode_->next_transition_due();
  return due == kNeverSlot ? kNeverSlot : std::max(due, from);
}

void Hypervisor::note_skipped_slots(std::uint64_t n) {
  for (auto& m : managers_) m->note_skipped_slots(n);
}

VirtManager& Hypervisor::manager(DeviceId device) {
  IOGUARD_CHECK(device.value < managers_.size());
  return *managers_[device.value];
}

const VirtManager& Hypervisor::manager(DeviceId device) const {
  IOGUARD_CHECK(device.value < managers_.size());
  return *managers_[device.value];
}

bool Hypervisor::fully_admitted() const {
  return std::all_of(designs_.begin(), designs_.end(),
                     [](const DeviceDesign& d) {
                       return d.table_feasible && d.servers_feasible;
                     });
}

void Hypervisor::set_tracer(EventTrace* tracer) {
  tracer_ = tracer;  // mode transitions are block-level, traced here
  for (std::size_t d = 0; d < managers_.size(); ++d)
    managers_[d]->set_tracer(tracer, DeviceId{static_cast<std::uint32_t>(d)});
  if (!tracer) return;
  // Init-time decisions happened before any trace buffer existed; replay
  // them at slot 0 so demotions are no longer silent.
  for (const auto& d : demotions_)
    tracer->record(TraceEvent{0, TraceEventKind::kDemote, d.device, d.vm,
                              d.task, JobId{}, 0});
}

void Hypervisor::set_jitter_recorder(JitterRecorder* recorder) {
  for (auto& m : managers_) m->set_jitter_recorder(recorder);
}

void Hypervisor::dump_scheduler_state(std::ostream& os) const {
  for (std::size_t d = 0; d < managers_.size(); ++d) {
    const VirtManager& m = *managers_[d];
    for (std::size_t v = 0; v < m.num_vms(); ++v) {
      os << "state,device=" << d << ",vm=" << v
         << ",backlog=" << m.pool(v).backlog()
         << ",granted=" << m.gsched().granted(v)
         << ",degraded=" << (m.vm_degraded(v) ? 1 : 0);
      // Criticality mode only when the feature is on: pre-MCS dumps keep
      // their exact bytes.
      if (mode_ != nullptr) os << ",mode=" << to_string(mode_->vm_mode(v));
      os << '\n';
    }
    os << "state,device=" << d << ",retries_pending=" << m.pending_retries()
       << ",busy_slots=" << m.busy_slots()
       << ",stall_slots=" << m.profile_stall_slots() << '\n';
  }
}

std::uint64_t Hypervisor::dropped_jobs() const {
  std::uint64_t total = 0;
  for (const auto& m : managers_) total += m->dropped_jobs();
  return total;
}

std::uint64_t Hypervisor::watchdog_aborts() const {
  std::uint64_t total = 0;
  for (const auto& m : managers_) total += m->watchdog_aborts();
  return total;
}

std::uint64_t Hypervisor::retries_scheduled() const {
  std::uint64_t total = 0;
  for (const auto& m : managers_) total += m->retries_scheduled();
  return total;
}

}  // namespace ioguard::core

#include "analysis/artifact_builder.hpp"

#include <algorithm>
#include <utility>

#include "analysis/verify_service.hpp"
#include "common/check.hpp"
#include "sched/server_design.hpp"

namespace ioguard::analysis {

std::vector<DeviceArtifacts> ExperimentArtifacts::device_views() const {
  std::vector<DeviceArtifacts> views;
  views.reserve(tables.size());
  for (std::size_t d = 0; d < tables.size(); ++d)
    views.push_back(DeviceArtifacts{&tables[d], &predefined[d], &servers[d],
                                    &vm_tasks[d]});
  return views;
}

std::size_t ExperimentArtifacts::busiest_device() const {
  IOGUARD_CHECK(!tables.empty());
  const auto used = [this](std::size_t d) {
    return tables[d].hyperperiod() - tables[d].free_slots();
  };
  std::size_t busiest = 0;
  for (std::size_t d = 1; d < tables.size(); ++d)
    if (used(d) > used(busiest)) busiest = d;
  return busiest;
}

ExperimentArtifacts build_experiment_artifacts(
    const workload::CaseStudyConfig& cfg, std::size_t trials,
    std::size_t min_jobs, Slot dispatch_overhead_slots) {
  const auto wl = workload::build_case_study(cfg);
  ExperimentArtifacts a;
  a.all = wl.tasks;
  a.experiment.num_vms = cfg.num_vms;
  a.experiment.target_utilization = cfg.target_utilization;
  a.experiment.preload_fraction = cfg.preload_fraction;
  a.experiment.trials = trials;
  a.experiment.min_jobs_per_task = min_jobs;
  a.platform.device_count = workload::kCaseStudyDeviceCount;

  for (std::size_t d = 0; d < workload::kCaseStudyDeviceCount; ++d) {
    const DeviceId dev{static_cast<std::uint32_t>(d)};
    auto predefined = wl.predefined().filter_device(dev);
    workload::TaskSet demoted;
    auto build = sched::build_time_slot_table(predefined);
    while (!build.feasible && !predefined.empty()) {
      // Demote the least critical, largest-demand task first (same policy
      // as core::Hypervisor at initialization).
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

    auto runtime = wl.runtime().filter_device(dev);
    for (const auto& t : demoted.tasks()) runtime.add(t);
    std::vector<workload::TaskSet> vm_tasks;
    vm_tasks.reserve(cfg.num_vms);
    for (std::size_t v = 0; v < cfg.num_vms; ++v) {
      workload::TaskSet charged;
      const auto vm_set = runtime.filter_vm(VmId{static_cast<std::uint32_t>(v)});
      for (auto t : vm_set.tasks()) {
        t.wcet = std::min(t.deadline, t.wcet + dispatch_overhead_slots);
        charged.add(std::move(t));
      }
      vm_tasks.push_back(std::move(charged));
    }

    const sched::TableSupply supply(build.table);
    auto design = sched::design_system(supply, vm_tasks);
    std::vector<sched::ServerParams> servers;
    if (design.feasible || !design.servers.empty()) {
      // Hand even an infeasible design to the verifier: its job is to
      // report *why* the artifacts are unsound, not to hide them.
      servers = design.servers;
    } else {
      servers.assign(cfg.num_vms, sched::ServerParams{1, 0});
    }

    a.predefined.push_back(std::move(predefined));
    a.tables.push_back(std::move(build.table));
    a.servers.push_back(std::move(servers));
    a.vm_tasks.push_back(std::move(vm_tasks));
  }
  return a;
}

Report verify_case_study(const workload::CaseStudyConfig& cfg,
                         std::size_t trials, std::size_t min_jobs) {
  const auto a = build_experiment_artifacts(cfg, trials, min_jobs);
  Report report =
      verify_system(a.platform, a.experiment, a.all, a.device_views());
  // Admission-service coherence (ADMxxx) on every device's VM task sets:
  // the same artifacts, churned through the incremental engine.
  for (std::size_t d = 0; d < a.tables.size(); ++d)
    verify_service(a.tables[d], a.vm_tasks[d], ServiceCheckOptions{}, report);
  return report;
}

}  // namespace ioguard::analysis

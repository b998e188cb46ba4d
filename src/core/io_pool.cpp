#include "core/io_pool.hpp"

#include "common/check.hpp"

namespace ioguard::core {

IoPool::IoPool(VmId vm, std::size_t queue_capacity,
               Slot dispatch_overhead_slots)
    : vm_(vm), queue_(queue_capacity),
      dispatch_overhead_(dispatch_overhead_slots) {
  shadow_.vm = vm;
}

bool IoPool::submit(const workload::Job& job) {
  IOGUARD_CHECK_MSG(job.vm == vm_, "job routed to wrong VM pool");
  workload::Job charged = job;
  charged.wcet += dispatch_overhead_;
  if (!queue_.insert(charged)) {
    ++dropped_;
    return false;
  }
  return true;
}

void IoPool::refresh_shadow() {
  const auto earliest = queue_.peek_earliest();
  if (!earliest) {
    shadow_.valid = false;
    shadow_.handle = kInvalidHandle;
    shadow_.task = TaskId{};
    shadow_.job = JobId{};
    return;
  }
  const ParamSlot& p = queue_.params(*earliest);
  shadow_.valid = true;
  shadow_.handle = *earliest;
  shadow_.absolute_deadline = p.absolute_deadline;
  shadow_.release = p.release;
  shadow_.task = p.task;
  shadow_.job = p.job;
}

ParamSlot IoPool::abort(EntryHandle handle) {
  IOGUARD_CHECK_MSG(queue_.valid(handle), "aborting an invalid pool entry");
  ParamSlot p = queue_.params(handle);
  queue_.remove(handle);
  if (shadow_.valid && shadow_.handle == handle) shadow_.valid = false;
  return p;
}

std::size_t IoPool::shed_all() {
  const auto handles = queue_.live_handles();
  for (EntryHandle h : handles) queue_.remove(h);
  shadow_.valid = false;
  shadow_.handle = kInvalidHandle;
  return handles.size();
}

std::size_t IoPool::shed_lo(const std::vector<std::uint8_t>& hi_tasks) {
  std::size_t shed = 0;
  for (EntryHandle h : queue_.live_handles()) {
    const ParamSlot& p = queue_.params(h);
    const std::size_t task = p.task.value;
    if (task < hi_tasks.size() && hi_tasks[task] != 0) continue;
    queue_.remove(h);
    if (shadow_.valid && shadow_.handle == h) {
      shadow_.valid = false;
      shadow_.handle = kInvalidHandle;
    }
    ++shed;
  }
  return shed;
}

std::optional<ParamSlot> IoPool::execute_shadow_slots(Slot slots) {
  IOGUARD_CHECK_MSG(shadow_.valid, "executing an invalid shadow register");
  const EntryHandle h = shadow_.handle;
  if (queue_.consume_slots(h, slots)) {
    ParamSlot finished = queue_.params(h);
    queue_.remove(h);  // "the executor ... removes it from the priority queue"
    shadow_.valid = false;
    return finished;
  }
  return std::nullopt;
}

}  // namespace ioguard::core

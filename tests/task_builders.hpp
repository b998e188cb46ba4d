// Task-spec builders shared by the test suites.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "workload/task.hpp"

namespace ioguard::tests {

/// "<prefix><n>". Appends rather than writing `prefix + std::to_string(n)`,
/// which GCC 12 flags with a false -Wrestrict once it inlines the concat.
inline std::string numbered(const char* prefix, std::uint64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

/// Pre-defined task "p<id>" of VM 0 on device 0 with a 16-byte payload.
inline workload::IoTaskSpec predefined_task(std::uint32_t id, Slot t, Slot c,
                                            Slot d, Slot offset = 0) {
  workload::IoTaskSpec s;
  s.id = TaskId{id};
  s.vm = VmId{0};
  s.device = DeviceId{0};
  s.name = numbered("p", id);
  s.kind = workload::TaskKind::kPredefined;
  s.period = t;
  s.wcet = c;
  s.deadline = d;
  s.offset = offset;
  s.payload_bytes = 16;
  return s;
}

/// Run-time task "r<id>" of VM `vm` on device `dev` with a 16-byte payload.
inline workload::IoTaskSpec runtime_task(std::uint32_t id, Slot t, Slot c,
                                         Slot d, std::uint32_t vm = 0,
                                         std::uint32_t dev = 0) {
  workload::IoTaskSpec s = predefined_task(id, t, c, d);
  s.kind = workload::TaskKind::kRuntime;
  s.vm = VmId{vm};
  s.device = DeviceId{dev};
  s.name = numbered("r", id);
  return s;
}

}  // namespace ioguard::tests

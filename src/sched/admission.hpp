// Schedulability tests of Sec. IV: Theorem 1 (G-level, exact over one check
// bound), Theorem 2 (pseudo-polynomial G-level), Theorem 3 (L-level), and
// Theorem 4 (pseudo-polynomial L-level).
#pragma once

#include <optional>
#include <vector>

#include "sched/sbf.hpp"
#include "workload/task.hpp"

namespace ioguard::sched {

/// Outcome of an admission test, with the violating instant when rejected.
struct AdmissionResult {
  bool schedulable = false;
  Slot checked_until = 0;            ///< exclusive upper bound of checked t
  std::optional<Slot> violation_t;   ///< first t where dbf > sbf (if any)

  explicit operator bool() const { return schedulable; }
};

/// Theorem 1 evaluated exhaustively: checks dbf/sbf at every demand step
/// point t <= t_max (t_max defaults to lcm(H, Pi_1..Pi_n), capped).
AdmissionResult theorem1_exhaustive(const TableSupply& supply,
                                    const std::vector<ServerParams>& servers,
                                    Slot t_max = 0,
                                    Slot lcm_cap = Slot{1} << 26);

/// Theorem 2: pseudo-polynomial G-level test. Uses the system's actual slack
/// c = F/H - sum(Theta/Pi) (must be > 0; returns unschedulable otherwise,
/// which matches the theorem's stated limitation).
AdmissionResult theorem2_check(const TableSupply& supply,
                               const std::vector<ServerParams>& servers);

/// Theorem 3 evaluated exhaustively for VM i: checks at every step point of
/// sum dbf(tau_k, t) up to t_max (defaults to lcm(Pi, T_k...), capped).
AdmissionResult theorem3_exhaustive(const ServerParams& server,
                                    const workload::TaskSet& vm_tasks,
                                    Slot t_max = 0,
                                    Slot lcm_cap = Slot{1} << 26);

/// Theorem 4: pseudo-polynomial L-level test with the VM's actual slack
/// c' = Theta/Pi - sum(C/T) (must be > 0).
AdmissionResult theorem4_check(const ServerParams& server,
                               const workload::TaskSet& vm_tasks);

/// Exclusive check bound of Theorem 2: ceil(F * ((H-1)/H) / c) + 1 with the
/// G-level slack c = F/H - sum(Theta_i/Pi_i). Empty when c <= 0 or when the
/// bound does not fit in a Slot. The sign of c is decided in exact integer
/// arithmetic over the lcm of the denominators whenever that lcm is at most
/// 2^26, so a rounding residue of a zero slack never yields a bound.
std::optional<Slot> slack_check_bound(const TableSupply& supply,
                                      const std::vector<ServerParams>& servers);

/// Exclusive check bound of Theorem 4: ceil((max(T-D) + 2*Pi - Theta - 1 +
/// carry_over) / c') + 1 with the L-level slack c' = Theta/Pi - sum(C/T);
/// `carry_over` widens the window of the mixed-criticality transition check.
/// Empty under the same conditions as the G-level overload.
std::optional<Slot> slack_check_bound(const ServerParams& server,
                                      const workload::TaskSet& vm_tasks,
                                      Slot carry_over = 0);

}  // namespace ioguard::sched

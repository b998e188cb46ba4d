#include "sched/admission.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace ioguard::sched {

namespace {

/// Checks sum-dbf <= sbf at each step point of the (non-decreasing, piecewise
/// constant) demand function. Demand only increases at `steps`; supply is
/// non-decreasing, so checking exactly at the step instants is sufficient.
template <class DemandFn, class SupplyFn>
AdmissionResult check_at_steps(const std::vector<Slot>& steps,
                               DemandFn&& demand, SupplyFn&& supply,
                               Slot bound) {
  AdmissionResult r;
  r.checked_until = bound;
  for (Slot t : steps) {
    if (t >= bound) break;
    if (demand(t) > supply(t)) {
      r.violation_t = t;
      return r;
    }
  }
  r.schedulable = true;
  return r;
}

/// Step points of server demand: multiples of each Pi, in [1, bound).
std::vector<Slot> server_steps(const std::vector<ServerParams>& servers,
                               Slot bound) {
  std::vector<Slot> steps;
  for (const auto& g : servers)
    for (Slot t = g.pi; t < bound; t += g.pi) steps.push_back(t);
  std::sort(steps.begin(), steps.end());
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
  return steps;
}

/// Step points of sporadic demand: t = D_k + m*T_k, in [1, bound).
std::vector<Slot> sporadic_steps(const workload::TaskSet& tasks, Slot bound) {
  std::vector<Slot> steps;
  for (const auto& tau : tasks.tasks())
    for (Slot t = tau.deadline; t < bound; t += tau.period) steps.push_back(t);
  std::sort(steps.begin(), steps.end());
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
  return steps;
}

/// ceil(numerator / c) + 1 for the slack c = supply - sum(demand), where the
/// supply and every demand term are ratios num/den of slot counts. The double
/// slack sizes the bound as the theorems state it; whether c > 0 is decided
/// exactly over L = lcm of all denominators when L <= 2^26 (an exactly zero
/// slack can round to a tiny positive double, which would ask for a check
/// range of ~1e19 slots), and from the double otherwise.
template <class Demand, class Ratio>
std::optional<Slot> slack_bound(Slot supply_num, Slot supply_den,
                                const Demand& demand, Ratio ratio,
                                double numerator) {
  constexpr Slot kLcmCap = Slot{1} << 26;
  double used = 0.0;
  Slot l = supply_den <= kLcmCap ? supply_den : 0;  // 0: lcm exceeds the cap
  for (const auto& d : demand) {
    const auto [num, den] = ratio(d);
    used += static_cast<double>(num) / static_cast<double>(den);
    if (l == 0) continue;
    const Slot q = l / std::gcd(l, den);
    l = q <= kLcmCap / den ? q * den : 0;
  }
  const double c =
      static_cast<double>(supply_num) / static_cast<double>(supply_den) - used;
  if (l != 0) {
    using Wide = unsigned __int128;
    const Wide have = Wide{supply_num} * (l / supply_den);
    Wide need = 0;
    for (const auto& d : demand) {
      const auto [num, den] = ratio(d);
      need += Wide{num} * (l / den);
    }
    if (need >= have) return std::nullopt;
  } else if (c <= 0.0) {
    return std::nullopt;
  }
  const double bound = std::ceil(numerator / c);
  if (!(bound >= 0.0 && bound < 0x1p63)) return std::nullopt;
  return static_cast<Slot>(bound) + 1;
}

}  // namespace

std::optional<Slot> slack_check_bound(const TableSupply& supply,
                                      const std::vector<ServerParams>& servers) {
  const double h = static_cast<double>(supply.hyperperiod());
  const double f = static_cast<double>(supply.free_per_period());
  return slack_bound(
      supply.free_per_period(), supply.hyperperiod(), servers,
      [](const ServerParams& g) { return std::pair{g.theta, g.pi}; },
      f * ((h - 1.0) / h));
}

std::optional<Slot> slack_check_bound(const ServerParams& server,
                                      const workload::TaskSet& vm_tasks,
                                      Slot carry_over) {
  Slot max_laxity = 0;  // max(T_k - D_k)
  for (const auto& tau : vm_tasks.tasks())
    max_laxity = std::max(max_laxity, tau.period - tau.deadline);
  const double num = static_cast<double>(max_laxity) +
                     2.0 * static_cast<double>(server.pi) -
                     static_cast<double>(server.theta) - 1.0 +
                     static_cast<double>(carry_over);
  return slack_bound(
      server.theta, server.pi, vm_tasks.tasks(),
      [](const workload::IoTaskSpec& tau) {
        return std::pair{tau.wcet, tau.period};
      },
      num);
}

AdmissionResult theorem1_exhaustive(const TableSupply& supply,
                                    const std::vector<ServerParams>& servers,
                                    Slot t_max, Slot lcm_cap) {
  if (servers.empty()) {
    AdmissionResult r;
    r.schedulable = true;
    return r;
  }
  if (t_max == 0) {
    // lcm of {H} u {Pi_i}: the exact check bound stated below Theorem 1.
    Slot l = supply.hyperperiod();
    for (const auto& g : servers) l = workload::checked_lcm(l, g.pi, lcm_cap);
    t_max = l + 1;
  }
  const auto steps = server_steps(servers, t_max);
  return check_at_steps(
      steps,
      [&](Slot t) {
        Slot d = 0;
        for (const auto& g : servers) d += dbf_server(g, t);
        return d;
      },
      [&](Slot t) { return supply.sbf(t); }, t_max);
}

AdmissionResult theorem2_check(const TableSupply& supply,
                               const std::vector<ServerParams>& servers) {
  AdmissionResult r;
  if (servers.empty()) {
    r.schedulable = true;
    return r;
  }
  // t* < F * ((H-1)/H) / c; Theorem 2's stated limitation requires c > 0.
  const auto bound = slack_check_bound(supply, servers);
  if (!bound) return r;
  return theorem1_exhaustive(supply, servers, *bound);
}

AdmissionResult theorem3_exhaustive(const ServerParams& server,
                                    const workload::TaskSet& vm_tasks,
                                    Slot t_max, Slot lcm_cap) {
  if (vm_tasks.empty()) {
    AdmissionResult r;
    r.schedulable = true;
    return r;
  }
  if (t_max == 0) {
    Slot l = server.pi;
    for (const auto& tau : vm_tasks.tasks())
      l = workload::checked_lcm(l, tau.period, lcm_cap);
    t_max = l + 1;
  }
  const auto steps = sporadic_steps(vm_tasks, t_max);
  return check_at_steps(
      steps, [&](Slot t) { return dbf_taskset(vm_tasks, t); },
      [&](Slot t) { return sbf_server(server, t); }, t_max);
}

AdmissionResult theorem4_check(const ServerParams& server,
                               const workload::TaskSet& vm_tasks) {
  AdmissionResult r;
  if (vm_tasks.empty()) {
    r.schedulable = true;
    return r;
  }
  // t* < (max(T-D) + 2*Pi - Theta - 1) / c'; Theorem 4 requires c' > 0.
  const auto bound = slack_check_bound(server, vm_tasks);
  if (!bound) return r;
  return theorem3_exhaustive(server, vm_tasks, *bound);
}

}  // namespace ioguard::sched

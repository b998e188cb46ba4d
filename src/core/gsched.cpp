#include "core/gsched.hpp"

#include <algorithm>
#include <tuple>

#include "common/check.hpp"

namespace ioguard::core {

GSched::GSched(std::vector<sched::ServerParams> servers, GschedPolicy policy)
    : servers_(std::move(servers)), state_(servers_.size()), policy_(policy) {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    IOGUARD_CHECK(servers_[i].pi > 0);
    IOGUARD_CHECK(servers_[i].theta <= servers_[i].pi);
    state_[i].budget = servers_[i].theta;
    state_[i].next_replenish = servers_[i].pi;
  }
}

void GSched::set_server(std::size_t i, const sched::ServerParams& params) {
  IOGUARD_CHECK(i < servers_.size());
  IOGUARD_CHECK(params.pi == servers_[i].pi);  // period is fixed by admission
  IOGUARD_CHECK(params.theta <= params.pi);
  const Slot old_theta = servers_[i].theta;
  if (params.theta > old_theta) {
    state_[i].budget += params.theta - old_theta;
  } else {
    state_[i].budget = std::min(state_[i].budget, params.theta);
  }
  servers_[i] = params;
}

void GSched::replenish(Slot now) {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    // Catch up all period boundaries at or before `now` in one step; a
    // (Pi=1, Theta=0) server of a task-less VM may be many periods behind.
    ServerState& st = state_[i];
    if (now < st.next_replenish) continue;
    const Slot pi = servers_[i].pi;
    st.budget = servers_[i].theta;
    st.next_replenish += ((now - st.next_replenish) / pi + 1) * pi;
  }
}

std::optional<std::size_t> GSched::pick(
    Slot now, const std::vector<ShadowRegister>& shadows) {
  const auto grant = select(now, shadows);
  if (!grant) return std::nullopt;
  commit(*grant, 1);
  return grant->vm;
}

std::optional<GSched::Grant> GSched::select(
    Slot now, const std::vector<ShadowRegister>& shadows) {
  IOGUARD_CHECK(shadows.size() == servers_.size());
  replenish(now);

  std::optional<std::size_t> best;
  // Selection keys, smaller = higher priority.
  auto key = [&](std::size_t i) {
    const Slot server_deadline = state_[i].next_replenish;
    const Slot job_deadline = shadows[i].absolute_deadline;
    switch (policy_) {
      case GschedPolicy::kServerEdf:
        return std::tuple(server_deadline, job_deadline, static_cast<Slot>(i));
      case GschedPolicy::kJobEdf:
        return std::tuple(job_deadline, server_deadline, static_cast<Slot>(i));
      case GschedPolicy::kGlobalEdfNoBudget:
        return std::tuple(job_deadline, Slot{0}, static_cast<Slot>(i));
    }
    return std::tuple(kNeverSlot, kNeverSlot, static_cast<Slot>(i));
  };

  // The running winner's key is cached so each candidate costs one key
  // computation, not two (select() runs once per free-slot decision).
  const bool budgets = policy_ != GschedPolicy::kGlobalEdfNoBudget;
  std::tuple<Slot, Slot, Slot> best_key{};
  for (std::size_t i = 0; i < shadows.size(); ++i) {
    if (!shadows[i].valid) continue;
    if (budgets && state_[i].budget == 0) continue;
    const auto k = key(i);
    if (!best || k < best_key) {
      best = i;
      best_key = k;
    }
  }
  if (best) return Grant{*best, budgets, false};

  // Slack reclamation: no budgeted candidate, but the slot would otherwise
  // idle -- hand it to the earliest-deadline pending operation for free.
  Slot best_deadline = kNeverSlot;
  for (std::size_t i = 0; i < shadows.size(); ++i) {
    if (!shadows[i].valid) continue;
    if (!best || shadows[i].absolute_deadline < best_deadline) {
      best = i;
      best_deadline = shadows[i].absolute_deadline;
    }
  }
  if (best) return Grant{*best, false, true};
  return std::nullopt;
}

void GSched::commit(const Grant& grant, Slot slots) {
  ServerState& st = state_.at(grant.vm);
  if (grant.budgeted) {
    IOGUARD_CHECK(st.budget >= slots);
    st.budget -= slots;
  }
  st.granted += slots;
  if (grant.slack) st.slack_granted += slots;
}

Slot GSched::next_replenish(const std::vector<ShadowRegister>& shadows) const {
  Slot earliest = kNeverSlot;
  for (std::size_t i = 0; i < shadows.size(); ++i)
    if (shadows[i].valid)
      earliest = std::min(earliest, state_[i].next_replenish);
  return earliest;
}

}  // namespace ioguard::core

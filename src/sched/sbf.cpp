#include "sched/sbf.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ioguard::sched {

TableSupply::TableSupply(const TimeSlotTable& table)
    : h_(table.hyperperiod()), f_(table.free_slots()) {
  // prefix_[i] = number of free slots in [0, i) of sigma* repeated twice,
  // so a window [s, s+t) with s < H, t <= H never needs an explicit wrap.
  prefix_.resize(static_cast<std::size_t>(2 * h_ + 1), 0);
  for (Slot i = 0; i < 2 * h_; ++i)
    prefix_[static_cast<std::size_t>(i + 1)] =
        prefix_[static_cast<std::size_t>(i)] +
        (table.is_free(i % h_) ? 1 : 0);
  enum_cache_.assign(static_cast<std::size_t>(h_), kNeverSlot);
  // Cyclic starts of reserved runs: reserved slots whose predecessor is free.
  for (Slot s = 0; s < h_; ++s)
    if (!table.is_free(s) && table.is_free((s + h_ - 1) % h_))
      run_starts_.push_back(s);
}

Slot TableSupply::enum_lookup(Slot t) const {
  IOGUARD_DCHECK(t < h_);
  if (t == 0) return 0;
  Slot& cached = enum_cache_[static_cast<std::size_t>(t)];
  if (cached != kNeverSlot) return cached;
  // Shifting a window that starts on a free slot right, or one whose start
  // follows a reserved slot left, never raises its free count, so some
  // window starting a reserved run attains the minimum. No runs: the table
  // is all-free (every window is free) or all-reserved (none is).
  if (run_starts_.empty()) {
    cached = f_ == h_ ? t : 0;
    return cached;
  }
  Slot best = kNeverSlot;
  for (const Slot s : run_starts_) {
    const Slot got = prefix_[static_cast<std::size_t>(s + t)] -
                     prefix_[static_cast<std::size_t>(s)];
    best = std::min(best, got);
    if (best == 0) break;  // cannot go lower
  }
  cached = best;
  return best;
}

Slot TableSupply::sbf(Slot t) const {
  if (t == 0) return 0;
  if (t < h_) return enum_lookup(t);
  // Eq. (2): sbf(t) = sbf(t mod H) + floor(t / H) * F.
  return enum_lookup(t % h_) + (t / h_) * f_;
}

Slot dbf_server(const ServerParams& gamma, Slot t) {
  IOGUARD_CHECK(gamma.pi > 0);
  return (t / gamma.pi) * gamma.theta;
}

Slot sbf_server(const ServerParams& gamma, Slot t) {
  IOGUARD_CHECK(gamma.pi > 0 && gamma.theta > 0 && gamma.theta <= gamma.pi);
  // Eq. (8) with t' = t - (Pi - Theta);
  // theta = max(t' - Pi*floor(t'/Pi) - (Pi - Theta), 0).
  const Slot gap = gamma.pi - gamma.theta;
  if (t < gap) return 0;  // t' < 0
  const Slot tp = t - gap;
  const Slot full = (tp / gamma.pi) * gamma.theta;
  const Slot rem = tp % gamma.pi;
  const Slot partial = rem > gap ? rem - gap : 0;
  return full + partial;
}

Slot dbf_sporadic(Slot period, Slot wcet, Slot deadline, Slot t) {
  IOGUARD_CHECK(period > 0 && wcet > 0 && deadline > 0);
  if (t < deadline) return 0;
  return ((t - deadline) / period + 1) * wcet;
}

Slot dbf_taskset(const workload::TaskSet& tasks, Slot t) {
  Slot sum = 0;
  for (const auto& tau : tasks.tasks())
    sum += dbf_sporadic(tau.period, tau.wcet, tau.deadline, t);
  return sum;
}

}  // namespace ioguard::sched

// Global scheduler (G-Sched) of the two-layer scheduler (Sec. III-A, IV-A).
//
// The G-Sched allocates the free slots of the Time Slot Table to VMs. Each
// VM i is supported by a periodic server Gamma_i = (Pi_i, Theta_i): it is
// guaranteed at least Theta_i free slots in every Pi_i. Servers are
// scheduled by EDF over the free slots (Theorem 1), and within a granted
// slot the owning VM's shadow-register operation executes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/io_pool.hpp"
#include "sched/sbf.hpp"

namespace ioguard::core {

/// Which deadline drives the G-Sched's slot grant.
enum class GschedPolicy : std::uint8_t {
  /// EDF over server deadlines (matches the Theorem 1 analysis); ties break
  /// toward the earlier shadow (job) deadline.
  kServerEdf,
  /// EDF directly over the job deadlines in the shadow registers, gated by
  /// server budgets (closer to the paper's prose description).
  kJobEdf,
  /// No server budgets: plain global EDF over shadow registers (ablation;
  /// forfeits inter-VM bandwidth isolation).
  kGlobalEdfNoBudget,
};

class GSched {
 public:
  GSched(std::vector<sched::ServerParams> servers,
         GschedPolicy policy = GschedPolicy::kServerEdf);

  /// A G-Sched decision: the VM that owns the slot and how it pays for it.
  struct Grant {
    std::size_t vm = 0;
    bool budgeted = false;  ///< consumes server budget
    bool slack = false;     ///< slack reclamation (no budgeted candidate)
  };

  /// Picks the VM index to receive free slot `now`, among pools whose shadow
  /// register holds a pending operation. nullopt = slot stays idle.
  /// Budget accounting (replenish at period boundaries, consume on grant)
  /// happens inside. Slots no budgeted candidate wants are reclaimed: the
  /// earliest-deadline pending shadow receives the slot without consuming
  /// budget (work-conserving slack reclamation; each VM's Theta-per-Pi
  /// guarantee is a minimum and is unaffected). Equivalent to select()
  /// followed by commit(grant, 1).
  std::optional<std::size_t> pick(Slot now,
                                  const std::vector<ShadowRegister>& shadows);

  /// The selection half of pick(): replenishes budgets through `now` and
  /// returns the slot's owner without charging it.
  std::optional<Grant> select(Slot now,
                              const std::vector<ShadowRegister>& shadows);

  /// The commit half of pick(): charges `slots` free slots to `grant`. While
  /// the shadows are unchanged, a grant that is still within its budget and
  /// before next_replenish() would be selected again on every one of them.
  void commit(const Grant& grant, Slot slots);

  /// Earliest period boundary among servers whose shadow register holds an
  /// operation (kNeverSlot when none does): the first slot at which a
  /// replenishment could change select()'s answer.
  [[nodiscard]] Slot next_replenish(
      const std::vector<ShadowRegister>& shadows) const;

  /// Catches every server's budget up to the period boundaries at or before
  /// `now` (idempotent; select() does it implicitly).
  void replenish(Slot now);

  [[nodiscard]] const std::vector<sched::ServerParams>& servers() const {
    return servers_;
  }
  [[nodiscard]] GschedPolicy policy() const { return policy_; }

  /// Mixed-criticality mode switch: replaces server `i`'s parameters in
  /// place. A Theta increase credits the difference to the current budget
  /// immediately (the HI inflation must take effect mid-period); a decrease
  /// clamps the remaining budget to the new Theta. The replenishment phase
  /// (next period boundary) is untouched.
  void set_server(std::size_t i, const sched::ServerParams& params);

  /// Remaining budget of VM index `i` (test aid).
  [[nodiscard]] Slot budget(std::size_t i) const { return state_.at(i).budget; }

  /// Total slots granted to VM index `i` (budgeted + slack).
  [[nodiscard]] Slot granted(std::size_t i) const { return state_.at(i).granted; }

  /// Slots VM index `i` received through slack reclamation only.
  [[nodiscard]] Slot slack_granted(std::size_t i) const {
    return state_.at(i).slack_granted;
  }

 private:
  struct ServerState {
    Slot budget = 0;
    Slot next_replenish = 0;  ///< next period boundary
    Slot granted = 0;
    Slot slack_granted = 0;
  };

  std::vector<sched::ServerParams> servers_;
  std::vector<ServerState> state_;
  GschedPolicy policy_;
};

}  // namespace ioguard::core

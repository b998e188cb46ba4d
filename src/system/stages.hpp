// Pipeline stages of the request path, modelled at slot granularity with
// cycle-accurate budgets inside each slot.
//
//  IssueStage    -- per-VM/core: software cost of issuing one I/O request.
//                   A core issues requests serially; the per-slot cycle
//                   budget limits how many requests leave a VM per slot.
//  VmmStage      -- RT-XEN only: the VMM is a single shared software server;
//                   every I/O operation pays backend/scheduling cycles, and
//                   ops are admitted at scheduling-quantum granularity.
//  TransitModel  -- transport latency samplers: contended NoC for the
//                   baselines, dedicated point-to-point link for I/O-GUARD.
//  AnalyticTransit -- the trial loop's transit stage built on two
//                   TransitModels (sys::MeshTransit is the cycle-accurate
//                   alternative, system/cosim.hpp).
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "iodev/fifo_controller.hpp"
#include "system/config.hpp"
#include "workload/task.hpp"

namespace ioguard::sys {

/// Serial per-core software issue stage. Each slot grants the core
/// `cycles_per_slot` cycles; issuing one request costs `issue_cycles`.
/// Left-over cycles carry into the next slot (a request can straddle slots).
class IssueStage {
 public:
  IssueStage(Cycle issue_cycles, Cycle cycles_per_slot);

  void push(const workload::Job& job) { queue_.push_back(job); }

  /// Advances one slot; emits the requests that finished issuing.
  void tick_slot(std::vector<workload::Job>& out);

  [[nodiscard]] std::size_t backlog() const { return queue_.size(); }
  [[nodiscard]] bool idle() const { return queue_.empty(); }

 private:
  Cycle issue_cycles_;
  Cycle cycles_per_slot_;
  Cycle accumulated_ = 0;  ///< cycles already spent on the head request
  std::deque<workload::Job> queue_;
};

/// RT-XEN's VMM: a single shared software server. Ops wait for their VM's
/// next scheduling-quantum boundary (per-VCPU event processing is staggered
/// across VMs, as in Xen), then queue for the server, whose per-op service
/// time grows with the number of active VMs.
class VmmStage {
 public:
  VmmStage(const Calibration& cal, std::size_t num_vms, std::uint64_t seed);

  void push(const workload::Job& job, Slot now);

  /// Advances one slot; emits ops whose VMM processing completed.
  void tick_slot(Slot now, std::vector<workload::Job>& out);

  [[nodiscard]] std::size_t backlog() const {
    return waiting_.size() + queue_.size();
  }
  [[nodiscard]] bool idle() const { return waiting_.empty() && queue_.empty(); }

  /// Per-op service cycles of this configuration (for calibration output).
  [[nodiscard]] Cycle op_cycles() const { return op_cycles_; }

 private:
  struct Pending {
    workload::Job job;
    Slot ready_at;  ///< quantum boundary after which the op enters service
  };

  Cycle op_cycles_;
  Cycle cycles_per_slot_;
  Slot quantum_;
  std::size_t num_vms_;
  Rng rng_;
  std::vector<Pending> waiting_;   // pre-quantum
  std::deque<workload::Job> queue_;  // in service order
  Cycle accumulated_ = 0;
};

/// Transport latency sampler, in slots (sub-slot latencies round
/// stochastically so their mean is preserved).
class TransitModel {
 public:
  TransitModel(const Calibration& cal, SystemKind kind, std::size_t num_vms,
               double device_load, std::uint64_t seed);

  /// Latency of one request/response transfer, in slots.
  [[nodiscard]] Slot sample();

  /// Mean latency in cycles (closed form, for tests/calibration).
  [[nodiscard]] double mean_cycles() const { return mean_cycles_; }

 private:
  double mean_cycles_;
  Cycle base_cycles_;
  double contention_mean_;  ///< exponential tail mean, cycles
  Cycle cycles_per_slot_;
  Rng rng_;
};

/// The trial loop's analytic transit stage (sys::run_pipeline): requests and
/// responses draw their latencies from two TransitModel streams; requests
/// wait in an arrival-ordered queue.
class AnalyticTransit {
 public:
  AnalyticTransit(const Calibration& cal, SystemKind kind, std::size_t num_vms,
                  double device_load, std::uint64_t trial_seed)
      : request_(cal, kind, num_vms, device_load, trial_seed ^ 0x111),
        response_(cal, kind, num_vms, device_load, trial_seed ^ 0x222) {}

  void send_request(const workload::Job& job, Slot now) {
    queue_.push(InFlight{now + request_.sample(), job});
  }

  /// Hands every request that has arrived by `now` to `arrive`, in
  /// (arrival slot, job id) order.
  template <class Arrive>
  void deliver_requests(Slot now, Arrive&& arrive) {
    while (!queue_.empty() && queue_.top().arrival <= now) {
      const workload::Job job = queue_.top().job;
      queue_.pop();
      arrive(job);
    }
  }

  /// The next slot a request may arrive; kNeverSlot when none is in flight.
  [[nodiscard]] Slot next_arrival(Slot /*now*/) const {
    return queue_.empty() ? kNeverSlot : queue_.top().arrival;
  }

  /// Some request is in flight (the profiler's "transit busy").
  [[nodiscard]] bool busy() const { return !queue_.empty(); }

  /// Sends `done`'s response; `finish(done, slot)` runs with the slot it
  /// reaches the VM -- here at once.
  template <class Finish>
  void send_response(const iodev::Completion& done, Finish&& finish) {
    finish(done, done.completed_at + response_.sample());
  }

  /// Carries responses in flight through [from, to): none here.
  template <class Finish>
  void advance(Slot /*from*/, Slot /*to*/, Finish&& /*finish*/) {}

 private:
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

  TransitModel request_;
  TransitModel response_;
  std::priority_queue<InFlight, std::vector<InFlight>, ArriveLater> queue_;
};

}  // namespace ioguard::sys

// Cycle-accurate co-simulation: run_cosim runs the trial loop of run_trial
// (sys::run_pipeline, one job ledger) with MeshTransit as its transit stage,
// so the baselines' I/O packets cross the real wormhole mesh. Background
// traffic ticks the mesh every cycle, ~100x slower per simulated second
// than the analytic runner: it serves validation and latency studies, not
// 1000-trial sweeps.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "iodev/fifo_controller.hpp"
#include "noc/mesh.hpp"
#include "system/runner.hpp"
#include "system/stages.hpp"

namespace ioguard::sys {

/// The cycle-accurate transit stage on the paper's 5x5 floorplan: VMs
/// row-major from node 0, devices from node 20. The baselines' requests and
/// responses are packets on the mesh (cps = cycles per slot):
///   * a request sent at slot s enters at cycle s*cps; delivered at cycle c,
///     it arrives at the back-end at slot floor(c/cps)+1;
///   * a response enters at cycle (completed_at-1)*cps; delivered at cycle c,
///     it finishes the job at slot floor(c/cps)+1;
///   * while a request is on the mesh, the next slot is a decision point;
///   * without background traffic an idle mesh jumps to the next cycle a
///     packet enters it (an idle tick changes no state).
/// I/O-GUARD's processors reach the hypervisor over dedicated links, not the
/// routers (Sec. II-A): its transfers take AnalyticTransit's link model, so
/// its trial is run_trial's; its mesh carries only background traffic.
class MeshTransit {
 public:
  MeshTransit(const TrialConfig& config, double background_rate);
  MeshTransit(const MeshTransit&) = delete;  // delivery handlers hold `this`
  MeshTransit& operator=(const MeshTransit&) = delete;

  void send_request(const workload::Job& job, Slot now);

  template <class Arrive>
  void deliver_requests(Slot now, Arrive&& arrive) {
    if (link_) return link_->deliver_requests(now, arrive);
    while (!arrived_.empty() && arrived_.front().arrival <= now) {
      const workload::Job job = arrived_.front().job;
      arrived_.pop_front();
      arrive(job);
    }
  }

  [[nodiscard]] Slot next_arrival(Slot now) const;
  [[nodiscard]] bool busy() const;

  template <class Finish>
  void send_response(const iodev::Completion& done, Finish&& finish) {
    if (link_) return link_->send_response(done, finish);
    queue_response(done);
  }

  /// Ticks the mesh through the cycles of [from, to), then finishes the
  /// jobs whose responses it delivered, in delivery order.
  template <class Finish>
  void advance(Slot from, Slot to, Finish&& finish) {
    run_mesh(from, to);
    for (const Returned& r : returned_) finish(r.done, r.finish);
    returned_.clear();
  }

  /// Request packet latency through the mesh, cycles (baselines only).
  [[nodiscard]] const SampleSet& request_latency_cycles() const {
    return request_latency_;
  }
  [[nodiscard]] std::uint64_t packets_delivered() const {
    return mesh_.packets_delivered();
  }

 private:
  struct Arrived {
    Slot arrival;
    workload::Job job;
  };
  struct Returned {
    iodev::Completion done;
    Slot finish;
  };
  struct Outgoing {
    Cycle at;
    noc::Packet packet;
  };

  void queue_response(const iodev::Completion& done);
  void run_mesh(Slot from, Slot to);
  void inject_background(Cycle now);

  std::optional<AnalyticTransit> link_;  ///< I/O-GUARD's dedicated link
  noc::Mesh mesh_;
  Cycle cps_;
  std::size_t num_vms_;
  double background_rate_;
  Rng background_rng_;
  std::map<std::uint64_t, workload::Job> requests_;  ///< on the mesh, by id
  std::deque<Arrived> arrived_;  ///< delivered, in delivery order
  std::map<std::uint64_t, iodev::Completion> responses_;  ///< on the mesh
  std::vector<Outgoing> to_send_;  ///< responses of this stretch
  std::vector<Returned> returned_;
  SampleSet request_latency_;
};

struct CosimConfig {
  TrialConfig trial;
  /// Background traffic injected per VM node per cycle (memory/kernel
  /// traffic sharing the mesh with I/O, kBackground packets).
  double background_rate = 0.0;
};

struct CosimResult {
  TrialResult trial;
  /// Request packet latency through the interconnect, cycles.
  SampleSet request_latency_cycles;
  std::uint64_t noc_packets_delivered = 0;
};

/// Runs one cycle-accurate trial. Deterministic in `config`.
CosimResult run_cosim(const CosimConfig& config);

}  // namespace ioguard::sys

// Traced replay of one simulator trial.
//
// replay_trial() re-drives the stages sys::run_trial() composes --
// workload::build_case_study, workload::generate_trace, core::Hypervisor or
// iodev::FifoController, and sys::IssueStage / VmmStage / TransitModel --
// through their public APIs, in run_trial's order, timing each call from the
// outside. Trial phases (build, trace, design, slot loop, tally) become
// spans; calls inside the slot loop only bump per-call counters, because a
// trial visits up to ~250k slots and one span per call would swamp the
// numbers it measures.
//
// The replay covers run_trial's fault injection, mode switching, event trace
// and jitter taps; it leaves out the taps that do not feed the tallies
// (profile attribution, stage latencies, response times, flight recorder,
// metrics export). tallies_equal() is the gate that proves the replay timed
// the same work the program does.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"
#include "system/runner.hpp"

namespace perfbench {

/// Per-call counters of the slot loop plus work counts, summed over trials.
struct LayerCounters {
  // system: the runner-owned software stages.
  CallCounter issue_tick;      ///< IssueStage::tick_slot
  CallCounter vmm_tick;        ///< VmmStage::tick_slot (RT-XEN only)
  CallCounter transit_sample;  ///< TransitModel::sample
  // core: the I/O-GUARD hypervisor.
  CallCounter hyp_submit;      ///< Hypervisor::submit
  CallCounter hyp_tick;        ///< Hypervisor::tick_slot
  CallCounter hyp_next_busy;   ///< Hypervisor::next_busy_slot
  CallCounter hyp_note_skip;   ///< Hypervisor::note_skipped_slots
  // iodev: the baselines' FIFO controllers.
  CallCounter fifo_enqueue;    ///< FifoController::enqueue
  CallCounter fifo_tick;       ///< FifoController::tick_slot
  CallCounter fifo_next_busy;  ///< FifoController::next_busy_slot

  std::uint64_t horizon_slots = 0;  ///< simulated slots
  std::uint64_t hyp_horizon_slots = 0;
  std::uint64_t hyp_skipped_slots = 0;  ///< slots jumped over on I/O-GUARD
  std::uint64_t jobs = 0;               ///< released jobs in the traces
  std::uint64_t fifo_rejected = 0;
  std::uint64_t pool_dropped = 0;
  std::uint64_t translations = 0;
  std::uint64_t loop_self_ns = 0;  ///< loop span minus the timed calls

  void merge(const LayerCounters& other);
  /// Host ns spent inside the timed calls of the slot loop.
  [[nodiscard]] std::uint64_t call_ns() const;
};

/// Replays `config` (see the header comment for what is covered). Phase
/// spans go to `spans` under request id `request`.
[[nodiscard]] ioguard::sys::TrialResult replay_trial(
    const ioguard::sys::TrialConfig& config, LayerCounters& counters,
    SpanLog& spans, std::uint64_t request);

/// The tally gate: jobs_counted, jobs_on_time, misses, critical_misses,
/// dropped and device_busy_frac (bit-exact), plus the fault and
/// mode-switch counters the replay reproduces. Returns "" when equal, else
/// the first differing field.
[[nodiscard]] std::string tallies_diff(const ioguard::sys::TrialResult& a,
                                       const ioguard::sys::TrialResult& b);

}  // namespace perfbench

// Legacy FIFO I/O controller (slot-level behavioural model).
//
// "The implementation of traditional I/O controllers relies on FIFO queues,
// which forbids context switches at the hardware level" (Sec. I). Jobs are
// served strictly in arrival order and non-preemptively: once started, a job
// occupies the device until its service demand is exhausted. This is the
// I/O-side behaviour of BS|Legacy, BS|RT-XEN (backend) and BS|BV.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/jitter.hpp"
#include "common/types.hpp"
#include "faults/injector.hpp"
#include "workload/task.hpp"

namespace ioguard::iodev {

/// A queued request: which job wants how many device slots.
struct Request {
  workload::Job job;
  Slot enqueued_at = 0;
};

/// Completion record produced when a job's last slot of service finishes.
struct Completion {
  workload::Job job;
  Slot enqueued_at = 0;
  Slot completed_at = 0;  ///< slot index after which the job is done
  [[nodiscard]] bool missed() const {
    return completed_at > job.absolute_deadline;
  }
};

class FifoController {
 public:
  /// `queue_capacity` models the hardware FIFO depth; pushes beyond it are
  /// rejected (counted, job lost => deadline miss at the system layer).
  /// `dispatch_overhead_slots` is the per-job controller setup / framing
  /// occupancy added to the payload service time (same physical device cost
  /// the I/O-GUARD virtualization driver pays).
  explicit FifoController(std::size_t queue_capacity = 64,
                          Slot dispatch_overhead_slots = 0);

  /// Enqueues a request at slot `now`; false when the FIFO is full.
  [[nodiscard]] bool enqueue(const workload::Job& job, Slot now);

  /// Advances one slot; returns the completion finishing in this slot, if any.
  std::optional<Completion> tick_slot(Slot now);

  /// Advances the slots [from, to) with no enqueue in between, appending
  /// completions in slot order; equals tick_slot() on each slot in turn.
  /// Non-preemptive FIFO service makes every slot up to the head job's
  /// completion a foregone conclusion, so the head is served in one step.
  /// With a tap attached (needs_lockstep()) it ticks slot by slot.
  void advance(Slot from, Slot to, std::vector<Completion>& out);

  /// A fault injector or jitter recorder is attached: their draws and
  /// samples are ordered across devices, so a bank of controllers must be
  /// interleaved slot by slot (see advance_all).
  [[nodiscard]] bool needs_lockstep() const {
    return injector_ != nullptr || jitter_ != nullptr;
  }

  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] bool busy() const { return current_.has_value(); }
  [[nodiscard]] Slot busy_slots() const { return busy_slots_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] bool idle() const { return queue_.empty() && !current_; }

  /// Telemetry counters: completed jobs and their cumulative payload.
  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_completed_; }
  [[nodiscard]] std::uint64_t bytes_completed() const {
    return bytes_completed_;
  }

  /// Attaches a fault injector (not owned); `site` keys this controller's
  /// fault RNG streams. Legacy controllers have *no* resilience: a stall
  /// just blocks the head of line, a lost frame is simply gone -- the
  /// contrast the I/O-GUARD watchdog/retry path is measured against.
  void set_fault_injector(faults::FaultInjector* injector, std::size_t site) {
    injector_ = injector;
    fault_site_ = site;
  }

  [[nodiscard]] std::uint64_t stalled_slots() const { return stalled_slots_; }
  [[nodiscard]] std::uint64_t frames_lost() const { return frames_lost_; }

  /// Attaches a jitter recorder (not owned; nullptr detaches). Completions
  /// record their deviation from release + wcet + dispatch overhead (the
  /// unloaded service demand) on the "fifo" channel.
  void set_jitter_recorder(JitterRecorder* recorder) { jitter_ = recorder; }

  // ---- Cycle attribution (DESIGN.md §14): busy (busy_slots()) + stall +
  // quiescent partition the ticks exactly. -------------------------------
  /// Slots lost to an injected device stall while wedged or blocked.
  [[nodiscard]] std::uint64_t profile_stall_slots() const {
    return profile_stall_slots_;
  }
  /// Slots with an empty FIFO and no job in service.
  [[nodiscard]] std::uint64_t profile_quiescent_slots() const {
    return profile_quiescent_slots_;
  }

  // ---- Slot-skipping hints (DESIGN.md §15). The trial runner advances
  // through advance(); these remain for the benchmark harness's layer
  // replay (perfbench/harness/replay.cpp), which skips idle slots itself.
  /// Earliest slot >= `from` at which ticking could do anything: `from`
  /// while work is queued or in service, kNeverSlot when idle. With a fault
  /// injector attached every slot draws stall RNG, so the hint degenerates
  /// to `from` (faulted runs never skip).
  [[nodiscard]] Slot next_busy_slot(Slot from) const {
    if (injector_ != nullptr) return from;
    return idle() ? kNeverSlot : from;
  }

  /// Batch attribution for slots the runner proved quiescent and skipped.
  void note_skipped_slots(std::uint64_t n) { profile_quiescent_slots_ += n; }

 private:
  struct Active {
    Request request;
    Slot remaining;
  };

  /// Retires the job in service as a completion at the end of slot `now`.
  Completion finish(Slot now);

  std::size_t capacity_;
  Slot dispatch_overhead_;
  std::deque<Request> queue_;
  std::optional<Active> current_;
  Slot busy_slots_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t bytes_completed_ = 0;
  faults::FaultInjector* injector_ = nullptr;
  std::size_t fault_site_ = 0;
  Slot stall_remaining_ = 0;
  std::uint64_t stalled_slots_ = 0;
  std::uint64_t frames_lost_ = 0;
  JitterRecorder* jitter_ = nullptr;
  std::uint64_t profile_stall_slots_ = 0;
  std::uint64_t profile_quiescent_slots_ = 0;
};

/// Completion streams of a bank of devices, one per device, each in slot
/// order; merge_into() interleaves them the way a lock-step tick of the
/// devices in index order would have emitted them.
class CompletionStreams {
 public:
  explicit CompletionStreams(std::size_t devices)
      : streams_(devices), cursor_(devices, 0) {}

  [[nodiscard]] std::vector<Completion>& device(std::size_t d) {
    return streams_[d];
  }
  /// Empties every stream (capacity is kept).
  void clear();
  /// Appends every stream to `out` in (completion slot, device) order.
  void merge_into(std::vector<Completion>& out);

 private:
  std::vector<std::vector<Completion>> streams_;
  std::vector<std::size_t> cursor_;
};

/// Advances a bank of controllers over [from, to) with no enqueue in
/// between, appending completions in (slot, device) order -- byte-for-byte
/// what ticking every controller on every slot emits. When any controller
/// needs_lockstep(), the bank is ticked slot by slot.
void advance_all(std::vector<FifoController>& fifos, Slot from, Slot to,
                 CompletionStreams& streams, std::vector<Completion>& out);

}  // namespace ioguard::iodev

// Pre-defined I/O task channel (P-channel, Sec. III-A).
//
// "The memory banks store the pre-defined I/O tasks and the corresponding
// timing information ..., which are loaded during system initialization.
// During system execution, the executor synchronizes with a global timer and
// then compares the synchronized results with the time slot table. Once the
// system executes at a starting time point of a pre-loaded I/O task, the
// executor loads this task to the connected virtualization driver."
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/jitter.hpp"
#include "iodev/fifo_controller.hpp"  // for iodev::Completion
#include "sched/slot_table.hpp"
#include "workload/task.hpp"

namespace ioguard::core {

class PChannel {
 public:
  /// `predefined` are the pre-loaded tasks of this device; `table` is the
  /// offline-built Time Slot Table covering exactly those tasks.
  PChannel(workload::TaskSet predefined, sched::TimeSlotTable table);

  /// Executes slot `now` if the table reserves it for a pre-defined task.
  /// Returns the completion when this slot finishes a job. Returns nullopt
  /// (and consumes nothing) on free slots -- the caller then offers the slot
  /// to the R-channel.
  std::optional<iodev::Completion> execute_slot(Slot now, bool& slot_used);

  /// Is absolute slot `now` free for the R-channel?
  [[nodiscard]] bool slot_is_free(Slot now) const {
    return table_.is_free_abs(now);
  }

  /// Earliest absolute slot >= `from` that sigma* reserves (kNeverSlot when
  /// the table is all-free). Between reserved slots an otherwise-idle
  /// channel executes nothing.
  [[nodiscard]] Slot next_reserved_slot(Slot from) const;

  /// Bulk form of execute_slot: executes every reserved slot in the absolute
  /// range [from, to) in slot order, appending completions to `out`. Adds
  /// the slots that did work to `busy` and the startup-transient slots that
  /// executed nothing to `wasted`; free slots in the range are untouched.
  /// A call resumes from where the previous one stopped; it searches sigma*
  /// only when `from` is behind that or more than one hyperperiod past it.
  void execute_reserved(Slot from, Slot to, std::vector<iodev::Completion>& out,
                        Slot& busy, Slot& wasted);

  [[nodiscard]] const sched::TimeSlotTable& table() const { return table_; }
  [[nodiscard]] const workload::TaskSet& tasks() const { return tasks_; }
  [[nodiscard]] Slot busy_slots() const { return busy_slots_; }
  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_completed_; }
  /// Reserved slots that passed before their job's release (startup
  /// transient of hyper-period-wrapping jobs); they execute nothing.
  [[nodiscard]] std::uint64_t wasted_slots() const { return wasted_slots_; }

  /// Attaches a jitter recorder (not owned; nullptr detaches). On first
  /// attach the channel derives each task's *intended* per-hyperperiod
  /// completion schedule from the sigma* table itself (DESIGN.md §14), so
  /// the recorded deviation is a genuine measurement against the table's
  /// prescription, not against the executor's own behaviour.
  void set_jitter_recorder(JitterRecorder* recorder);

 private:
  struct TaskRun {
    workload::IoTaskSpec spec;
    Slot next_release = 0;   ///< release of the *next* job to start
    Slot current_release = 0;
    Slot remaining = 0;      ///< slots left of the in-flight job (0 = none)
    std::uint32_t jobs_started = 0;
  };

  /// A maximal run [start, end) of reserved slots within one hyperperiod:
  /// sigma*'s run-length encoding, walked by execute_reserved and searched
  /// by next_reserved_slot.
  struct ReservedRun {
    std::uint32_t start = 0;
    std::uint32_t end = 0;
  };

  /// Index of the first run ending after within-period slot `phase`
  /// (reserved_runs_.size() when none does).
  [[nodiscard]] std::size_t run_after(Slot phase) const;
  /// Executes reserved slot `now` for run `idx` and returns the completion
  /// when the slot finishes a job. `used` is false when the slot passed
  /// before the run's next release (startup transient).
  std::optional<iodev::Completion> step(Slot now, std::uint32_t idx,
                                        bool& used);

  workload::TaskSet tasks_;
  sched::TimeSlotTable table_;
  /// sigma*'s reserved runs within one hyperperiod, ascending (built once
  /// at construction; the table is immutable afterwards).
  std::vector<ReservedRun> reserved_runs_;
  /// Executor cursor: the last execute_reserved stopped at slot `at`; every
  /// run before run `run` of the hyperperiod starting at `base` ends by then.
  struct Cursor {
    Slot at = 0;
    Slot base = 0;
    std::size_t run = 0;
  };
  Cursor cursor_;
  // Run state, indexed through run_of_task_ (TaskId.value -> runs_ index,
  // kNoRun when the id is not pre-loaded here). The executor hits this once
  // per reserved slot, so the lookup is a plain array read, not a hash probe;
  // the constructor checks that every task the table reserves for has a run.
  static constexpr std::uint32_t kNoRun = 0xffffffffu;
  std::vector<TaskRun> runs_;
  std::vector<std::uint32_t> run_of_task_;
  Slot busy_slots_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t wasted_slots_ = 0;
  std::uint64_t next_job_seq_ = 0;
  JitterRecorder* jitter_ = nullptr;
  /// Per run: intended completion slot (exclusive, i.e. slot index + 1) of
  /// job k within one hyperperiod; job n's intended completion is
  /// intended_[run][n % J] + (n / J) * hyperperiod. Built lazily on first
  /// set_jitter_recorder.
  std::vector<std::vector<Slot>> intended_;
};

/// sigma*'s free slots numbered in order, for VirtManager::advance: the
/// free slots before each phase (H words) and the phase of each free slot
/// (F words), so each lookup is one division and one load. A manager builds
/// it on its first macro step; lock-step trials never allocate it.
class FreeSlotIndex {
 public:
  explicit FreeSlotIndex(const sched::TimeSlotTable& table);

  /// Free slots in the absolute range [0, t).
  [[nodiscard]] Slot free_before(Slot t) const {
    return (t / hyperperiod_) * phases_.size() + before_[t % hyperperiod_];
  }
  /// Absolute index of the free slot with 0-based free-slot number `index`,
  /// so free_slot(free_before(t)) is the first free slot at or after t.
  /// kNeverSlot when the table is all-reserved.
  [[nodiscard]] Slot free_slot(Slot index) const {
    if (phases_.empty()) return kNeverSlot;
    return (index / phases_.size()) * hyperperiod_ +
           phases_[index % phases_.size()];
  }

 private:
  Slot hyperperiod_;
  std::vector<std::uint32_t> before_;  ///< free slots before each phase
  std::vector<std::uint32_t> phases_;  ///< phase of each free slot
};

}  // namespace ioguard::core

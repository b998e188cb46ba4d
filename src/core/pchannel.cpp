#include "core/pchannel.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ioguard::core {

PChannel::PChannel(workload::TaskSet predefined, sched::TimeSlotTable table)
    : tasks_(std::move(predefined)), table_(std::move(table)) {
  for (const auto& t : tasks_.tasks()) {
    IOGUARD_CHECK(t.kind == workload::TaskKind::kPredefined);
    TaskRun run;
    run.spec = t;
    run.next_release = t.offset;
    if (t.id.value >= run_of_task_.size())
      run_of_task_.resize(t.id.value + 1, kNoRun);
    run_of_task_[t.id.value] = static_cast<std::uint32_t>(runs_.size());
    runs_.push_back(run);
  }
  const auto& raw = table_.raw();
  IOGUARD_CHECK_MSG(raw.size() <= 0xffffffffu, "hyperperiod exceeds 2^32 slots");
  for (std::uint32_t s = 0; s < raw.size(); ++s) {
    if (raw[s] == sched::TimeSlotTable::kFree) continue;
    IOGUARD_CHECK_MSG(
        raw[s] < run_of_task_.size() && run_of_task_[raw[s]] != kNoRun,
        "table references unknown task");
    if (!reserved_runs_.empty() && reserved_runs_.back().end == s) {
      ++reserved_runs_.back().end;
    } else {
      reserved_runs_.push_back(ReservedRun{s, s + 1});
    }
  }
}

FreeSlotIndex::FreeSlotIndex(const sched::TimeSlotTable& table)
    : hyperperiod_(table.hyperperiod()) {
  const auto& raw = table.raw();
  IOGUARD_CHECK_MSG(raw.size() <= 0xffffffffu, "hyperperiod exceeds 2^32 slots");
  before_.resize(raw.size());
  phases_.reserve(table.free_slots());
  for (std::uint32_t s = 0; s < raw.size(); ++s) {
    before_[s] = static_cast<std::uint32_t>(phases_.size());
    if (raw[s] == sched::TimeSlotTable::kFree) phases_.push_back(s);
  }
}

std::size_t PChannel::run_after(Slot phase) const {
  const auto it = std::upper_bound(
      reserved_runs_.begin(), reserved_runs_.end(), phase,
      [](Slot p, const ReservedRun& r) { return p < r.end; });
  return static_cast<std::size_t>(it - reserved_runs_.begin());
}

Slot PChannel::next_reserved_slot(Slot from) const {
  if (reserved_runs_.empty()) return kNeverSlot;
  const Slot hp = table_.hyperperiod();
  const Slot phase = from % hp;
  const std::size_t i = run_after(phase);
  if (i < reserved_runs_.size())
    return from + (std::max<Slot>(reserved_runs_[i].start, phase) - phase);
  // Wrap: the next reservation is the first one of the following period.
  return from + (hp - phase) + reserved_runs_.front().start;
}

void PChannel::set_jitter_recorder(JitterRecorder* recorder) {
  jitter_ = recorder;
  if (recorder == nullptr || !intended_.empty() || runs_.empty()) return;

  // Reconstruct the table's per-job placement: each task's reserved slots,
  // ascending, split at the task's offset -- slots before the offset are the
  // wrap tail of the previous generation's last job, so in job order they
  // come *after* the within-generation slots, one hyperperiod later.
  const Slot hp = table_.hyperperiod();
  std::vector<std::vector<Slot>> ordered(runs_.size());
  for (std::size_t idx = 0; idx < runs_.size(); ++idx)
    ordered[idx].reserve(runs_[idx].spec.wcet);
  std::vector<std::vector<Slot>> wrap_tail(runs_.size());
  for (Slot s = 0; s < hp; ++s) {
    const auto occupant = table_.occupant(s);
    if (!occupant) continue;
    const std::uint32_t idx = run_of_task_[occupant->value];
    if (s < runs_[idx].spec.offset)
      wrap_tail[idx].push_back(s + hp);
    else
      ordered[idx].push_back(s);
  }
  intended_.resize(runs_.size());
  for (std::size_t idx = 0; idx < runs_.size(); ++idx) {
    std::vector<Slot>& slots = ordered[idx];
    slots.insert(slots.end(), wrap_tail[idx].begin(), wrap_tail[idx].end());
    const Slot wcet = runs_[idx].spec.wcet;
    // Job k of a generation completes after its (k+1)*wcet-th reserved slot.
    for (std::size_t end = wcet; end <= slots.size(); end += wcet)
      intended_[idx].push_back(slots[end - 1] + 1);
  }
}

std::optional<iodev::Completion> PChannel::execute_slot(Slot now,
                                                        bool& slot_used) {
  slot_used = false;
  const auto occupant = table_.occupant(now % table_.hyperperiod());
  if (!occupant) return std::nullopt;
  return step(now, run_of_task_[occupant->value], slot_used);
}

void PChannel::execute_reserved(Slot from, Slot to,
                                std::vector<iodev::Completion>& out,
                                Slot& busy, Slot& wasted) {
  if (reserved_runs_.empty() || from >= to) return;
  const Slot hp = table_.hyperperiod();
  const auto& raw = table_.raw();
  // Resume from the cursor when `from` is at most one hyperperiod past it:
  // the walk below skips the runs that end before `from`. Otherwise search.
  Slot base = cursor_.base;
  std::size_t i = cursor_.run;
  if (from < cursor_.at || from - cursor_.at >= hp) {
    base = from - from % hp;
    i = run_after(from % hp);
  }
  // Walk the runs in order, wrapping into the next hyperperiod.
  for (;;) {
    if (i == reserved_runs_.size()) {
      i = 0;
      base += hp;
    }
    const ReservedRun& run = reserved_runs_[i];
    const Slot begin = std::max(from, base + run.start);
    const Slot end = std::min(to, base + run.end);
    for (Slot s = begin; s < end; ++s) {
      bool used = false;
      if (auto done = step(s, run_of_task_[raw[s - base]], used))
        out.push_back(*done);
      ++(used ? busy : wasted);
    }
    if (base + run.end >= to) break;
    ++i;
  }
  cursor_ = Cursor{to, base, i};
}

std::optional<iodev::Completion> PChannel::step(Slot now, std::uint32_t idx,
                                                bool& used) {
  TaskRun& run = runs_[idx];
  used = run.remaining != 0 || run.next_release <= now;
  if (!used) {
    ++wasted_slots_;  // startup transient of a wrapping job
    return std::nullopt;
  }
  if (run.remaining == 0) {
    // Start the next job: it has been released by now.
    run.current_release = run.next_release;
    run.next_release += run.spec.period;
    run.remaining = run.spec.wcet;
    ++run.jobs_started;
  }

  ++busy_slots_;
  if (--run.remaining != 0) return std::nullopt;  // mid-job: nothing to build
  ++jobs_completed_;
  iodev::Completion done;
  workload::Job& job = done.job;
  // High bit marks hypervisor-generated job ids, so they can never collide
  // with the dense trace-job ids of the R-channel.
  job.id = JobId{0x40000000u | static_cast<std::uint32_t>(next_job_seq_++)};
  job.task = run.spec.id;
  job.vm = run.spec.vm;
  job.device = run.spec.device;
  job.release = run.current_release;
  job.absolute_deadline = run.current_release + run.spec.deadline;
  job.wcet = run.spec.wcet;
  job.payload_bytes = run.spec.payload_bytes;

  done.enqueued_at = run.current_release;
  done.completed_at = now + 1;
  if (jitter_ != nullptr && idx < intended_.size() &&
      !intended_[idx].empty()) {
    const auto& sched = intended_[idx];
    const std::uint64_t n = run.jobs_started - 1;  // job completing now
    const Slot intended = (n / sched.size()) * table_.hyperperiod() +
                          sched[n % sched.size()];
    jitter_->record(JitterChannel::kPChannel, job.vm, job.task, intended,
                    done.completed_at);
  }
  return done;
}

}  // namespace ioguard::core

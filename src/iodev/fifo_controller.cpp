#include "iodev/fifo_controller.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ioguard::iodev {

FifoController::FifoController(std::size_t queue_capacity,
                               Slot dispatch_overhead_slots)
    : capacity_(queue_capacity), dispatch_overhead_(dispatch_overhead_slots) {
  IOGUARD_CHECK(queue_capacity > 0);
}

bool FifoController::enqueue(const workload::Job& job, Slot now) {
  if (queue_.size() >= capacity_) {
    ++rejected_;
    return false;
  }
  queue_.push_back(Request{job, now});
  return true;
}

std::optional<Completion> FifoController::tick_slot(Slot now) {
  if (injector_ != nullptr) {
    if (stall_remaining_ == 0) {
      stall_remaining_ = injector_->device_stall_begins(fault_site_);
    }
    if (stall_remaining_ > 0) {
      // No watchdog here: the FIFO head (and everything behind it) waits
      // out the whole stall.
      --stall_remaining_;
      ++stalled_slots_;
      ++profile_stall_slots_;
      return std::nullopt;
    }
  }
  if (!current_ && !queue_.empty()) {
    Request r = queue_.front();
    queue_.pop_front();
    current_ = Active{r, r.job.wcet + dispatch_overhead_};
  }
  if (!current_) {
    ++profile_quiescent_slots_;
    return std::nullopt;
  }

  ++busy_slots_;
  if (--current_->remaining == 0) {
    if (injector_ != nullptr && (injector_->drop_frame(fault_site_) ||
                                 injector_->corrupt_frame(fault_site_))) {
      // Lost/corrupt frame with no retransmission: the job silently never
      // completes (the system layer accounts the deadline miss).
      ++frames_lost_;
      current_.reset();
      return std::nullopt;
    }
    return finish(now);
  }
  return std::nullopt;
}

void FifoController::advance(Slot from, Slot to, std::vector<Completion>& out) {
  if (needs_lockstep()) {
    for (Slot s = from; s < to; ++s)
      if (auto done = tick_slot(s)) out.push_back(*done);
    return;
  }
  for (Slot s = from; s < to;) {
    if (!current_) {
      if (queue_.empty()) {
        profile_quiescent_slots_ += to - s;
        return;
      }
      const Request r = queue_.front();
      queue_.pop_front();
      current_ = Active{r, r.job.wcet + dispatch_overhead_};
    }
    const Slot n = std::min(current_->remaining, to - s);
    busy_slots_ += n;
    current_->remaining -= n;
    s += n;
    if (current_->remaining == 0) out.push_back(finish(s - 1));
  }
}

Completion FifoController::finish(Slot now) {
  Completion done;
  done.job = current_->request.job;
  done.enqueued_at = current_->request.enqueued_at;
  done.completed_at = now + 1;
  if (jitter_ != nullptr)
    jitter_->record(JitterChannel::kFifo, done.job.vm, done.job.task,
                    done.job.release + done.job.wcet + dispatch_overhead_,
                    done.completed_at);
  ++jobs_completed_;
  bytes_completed_ += done.job.payload_bytes;
  current_.reset();
  return done;
}

void CompletionStreams::clear() {
  for (auto& s : streams_) s.clear();
}

void CompletionStreams::merge_into(std::vector<Completion>& out) {
  std::fill(cursor_.begin(), cursor_.end(), 0);
  for (;;) {
    // The lowest device among those whose next completion is earliest.
    std::size_t best = streams_.size();
    for (std::size_t d = 0; d < streams_.size(); ++d) {
      if (cursor_[d] == streams_[d].size()) continue;
      if (best == streams_.size() ||
          streams_[d][cursor_[d]].completed_at <
              streams_[best][cursor_[best]].completed_at)
        best = d;
    }
    if (best == streams_.size()) return;
    out.push_back(streams_[best][cursor_[best]++]);
  }
}

void advance_all(std::vector<FifoController>& fifos, Slot from, Slot to,
                 CompletionStreams& streams, std::vector<Completion>& out) {
  const bool lockstep =
      std::any_of(fifos.begin(), fifos.end(),
                  [](const FifoController& f) { return f.needs_lockstep(); });
  if (lockstep) {
    for (Slot s = from; s < to; ++s)
      for (auto& f : fifos)
        if (auto done = f.tick_slot(s)) out.push_back(*done);
    return;
  }
  streams.clear();
  for (std::size_t d = 0; d < fifos.size(); ++d)
    fifos[d].advance(from, to, streams.device(d));
  streams.merge_into(out);
}

}  // namespace ioguard::iodev

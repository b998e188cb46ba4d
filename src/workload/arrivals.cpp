#include "workload/arrivals.hpp"

#include <algorithm>
#include <cmath>

namespace ioguard::workload {

std::vector<Job> generate_trace(const TaskSet& tasks,
                                const ArrivalConfig& config) {
  IOGUARD_CHECK(config.horizon > 0);
  IOGUARD_CHECK(config.exec_frac_lo > 0.0 &&
                config.exec_frac_lo <= config.exec_frac_hi &&
                config.exec_frac_hi <= 1.0);
  // Each task's releases ascend, so the trace is a k-way merge of per-task
  // streams: a min-heap of cursors keyed by (release, task id) emits the
  // jobs already in trace order. Each task draws from its own forked RNG
  // stream, so emission order does not change any draw.
  struct Cursor {
    Slot release = 0;
    std::size_t task = 0;  ///< index into tasks.tasks()
    Rng rng;
  };
  const auto& specs = tasks.tasks();
  const Rng rng(config.seed);
  std::vector<Cursor> heap;
  heap.reserve(specs.size());
  std::size_t bound = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const IoTaskSpec& t = specs[i];
    const Slot first = t.kind == TaskKind::kPredefined ? t.offset : Slot{0};
    bound += static_cast<std::size_t>(config.horizon / t.period + 1);
    if (first < config.horizon)
      heap.push_back(Cursor{first, i, rng.fork(t.id.value)});
  }
  // std::*_heap keep the greatest element on top; ordering by "later" puts
  // the earliest cursor there (task index breaks ties of duplicate ids).
  const auto later = [&specs](const Cursor& a, const Cursor& b) {
    if (a.release != b.release) return a.release > b.release;
    if (specs[a.task].id.value != specs[b.task].id.value)
      return specs[a.task].id.value > specs[b.task].id.value;
    return a.task > b.task;
  };
  std::make_heap(heap.begin(), heap.end(), later);

  std::vector<Job> jobs;
  jobs.reserve(bound);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& c = heap.back();
    const IoTaskSpec& t = specs[c.task];
    Job j;
    j.id = JobId{static_cast<std::uint32_t>(jobs.size())};
    j.task = t.id;
    j.vm = t.vm;
    j.device = t.device;
    j.release = c.release;
    j.absolute_deadline = c.release + t.deadline;
    const double frac = c.rng.uniform(config.exec_frac_lo, config.exec_frac_hi);
    j.wcet = std::max<Slot>(
        1, static_cast<Slot>(std::llround(frac * static_cast<double>(t.wcet))));
    j.payload_bytes = t.payload_bytes;
    jobs.push_back(j);

    if (t.kind == TaskKind::kPredefined) {
      c.release += t.period;
    } else {
      const double slack =
          config.jitter_frac <= 0.0
              ? 0.0
              : c.rng.exponential(config.jitter_frac *
                                  static_cast<double>(t.period));
      c.release += t.period + static_cast<Slot>(std::llround(slack));
    }
    if (c.release < config.horizon) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  return jobs;
}

Slot horizon_for_min_jobs(const TaskSet& tasks, std::size_t min_jobs) {
  Slot max_period = 0;
  for (const auto& t : tasks.tasks()) max_period = std::max(max_period, t.period);
  return max_period * static_cast<Slot>(min_jobs) + 1;
}

}  // namespace ioguard::workload

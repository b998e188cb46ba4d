// Measurement primitives of the benchmark: clocks, percentiles with a
// minimum-tail rule, per-call counters, an in-memory span log with self-time
// computation, and the result record printed as the run's last line.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds this process has run, over all its threads. With steal-time
/// accounting the kernel leaves out the time the hypervisor gave the CPU to
/// other guests, so on a shared host this is steadier than the wall clock;
/// the trial workloads run on one thread and are timed with it.
[[nodiscard]] double cpu_seconds();

/// CPU seconds the calling thread has run (steal left out, as above).
[[nodiscard]] double thread_cpu_seconds();

/// Pins the calling thread, and every thread and process it starts while
/// pinned, to the CPU it is running on; restores the previous affinity when
/// destroyed. A client and a daemon on one CPU hand each request over
/// without a cross-CPU wake-up, whose cost varies with the host's load.
class PinToOneCpu {
 public:
  PinToOneCpu();
  ~PinToOneCpu();
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  /// Gives the thread its previous affinity back (idempotent).
  void release();

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; fewer would make the tail one or two outliers.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< n
  std::size_t beyond = 0;   ///< samples ranked strictly above the percentile
  bool ok = false;          ///< beyond >= kMinBeyond
};

/// Nearest-rank percentile (rank k = ceil(pct/100 * n), 1-based) of
/// `samples`; `ok` is false when n == 0 or fewer than kMinBeyond samples
/// rank above it.
[[nodiscard]] Percentile percentile(std::vector<double> samples, double pct);

/// Median without the tail rule (for small per-layer sample sets).
[[nodiscard]] double median(std::vector<double> samples);

/// Calls into one public function: how many, and their summed host time.
struct CallCounter {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  void add(std::uint64_t elapsed_ns) {
    ++calls;
    ns += elapsed_ns;
  }
  void merge(const CallCounter& other) {
    calls += other.calls;
    ns += other.ns;
  }
  [[nodiscard]] double mean_ns() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

/// Times `fn()` into `counter` and returns its result.
template <typename Fn>
decltype(auto) timed(CallCounter& counter, Fn&& fn) {
  struct Stop {
    CallCounter& c;
    std::uint64_t t0;
    ~Stop() { c.add(now_ns() - t0); }
  } stop{counter, now_ns()};
  return fn();
}

/// One traced interval. `parent` indexes the enclosing span (-1 = root);
/// spans of one trial or request share `request`.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span log: spans are only appended while a run is traced and are
/// written out once, when it ends.
class SpanLog {
 public:
  /// Opens a span starting now; returns its index.
  int open(std::string name, std::uint64_t request, int parent = -1);
  void close(int index);
  /// Appends a finished span (tests, merging logs of worker threads).
  int add(Span span);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of it covered by the union of
  /// its direct children's intervals.
  [[nodiscard]] std::vector<std::uint64_t> self_ns() const;

  /// Sum of self time per span name.
  [[nodiscard]] std::map<std::string, std::uint64_t> self_ns_by_name() const;

  /// One JSON object per span and line.
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
};

/// The run's outcome: correctness, operation counts and named metrics.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void fail(std::size_t n, const std::string& why);
  void attempt(std::size_t n) { attempted_ += n; }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] double value(const std::string& name) const {
    return metrics_.at(name).value;
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  void write_json(std::ostream& os) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
};

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Peak-RSS window: returns freed heap to the OS, resets the kernel's
/// high-water mark and returns the resident set at that point (MiB), so
/// window_peak_rss_mb() minus it is the memory the work done since needed
/// at its peak (where the kernel cannot reset the mark, the process-wide
/// peak is read instead).
double reset_peak_rss();
[[nodiscard]] double window_peak_rss_mb();

/// Host speed. The benchmark's hosts are shared: another guest on the same
/// physical core, or a change of clock, slows every instruction by up to 2x
/// for minutes at a time, which neither CPU time nor medians over a run take
/// out. A run therefore times a fixed calibration kernel between its units
/// of work and divides its timings by its slowdown,
///   median(kernel seconds) / kReferenceKernelSeconds,
/// so figures read as on a quiet reference host: kReferenceKernelSeconds is
/// the kernel's time there, estimated for a 2.0 GHz Xeon (Sapphire Rapids)
/// vCPU from the ratio of trial to kernel time on a loaded one. The kernel -- a binary heap of 4096
/// keys under pushes and pops, with data-dependent branches: the core-bound
/// work an event-driven simulator does -- shares no code with the program,
/// so a change to the program moves the figures in full. Of the kernels
/// tried against simulator trials on a noisy host (cache-, memory- and
/// bandwidth-bound walks, alone and mixed), this one followed the trials'
/// slowdown most closely: 15 s medians of trial time spread 0.17-0.25
/// (IQR / median) raw and 0.03-0.10 divided by its slowdown.
inline constexpr double kReferenceKernelSeconds = 1.55e-3;

class SpeedProbe {
 public:
  /// `cpu_time`: time the kernel in CPU seconds of the calling thread,
  /// else on the wall clock -- the clock the run's own timings use.
  /// Runs the kernel once untimed (allocating its heap on this thread).
  explicit SpeedProbe(bool cpu_time);
  /// Times one run of the kernel.
  void sample();
  /// Adds a kernel time (tests).
  void add(double seconds) { seconds_.push_back(seconds); }
  void merge(const SpeedProbe& other);
  /// median(kernel seconds) / kReferenceKernelSeconds; 1 without samples.
  [[nodiscard]] double slowdown() const;
  /// The slowdown around sample `i`: over samples i - kNear .. i + kNear.
  /// Host speed drifts within a run; work timed next to sample `i` is
  /// divided by this. (On a noisy host, 15 s medians of simulator trials
  /// divided this way spread 0.046 against 0.066 with the run's slowdown.)
  [[nodiscard]] double slowdown_near(std::size_t i) const;
  static constexpr std::size_t kNear = 4;
  [[nodiscard]] std::size_t samples() const { return seconds_.size(); }
  /// The probe's clock, in seconds.
  [[nodiscard]] double now() const;

 private:
  bool cpu_time_;
  std::vector<double> seconds_;
};

/// Set-up time: the median of `repeats` timed calls of `fn(i)`, each after a
/// calibration sample, divided by the slowdown of those samples (set-up is
/// over in a second or two, so the run's later samples would not describe
/// the host it ran on). `cpu_time` picks the clock as for SpeedProbe.
template <typename Fn>
double setup_seconds(std::size_t repeats, bool cpu_time, Fn&& fn) {
  SpeedProbe speed(cpu_time);
  std::vector<double> s;
  for (std::size_t i = 0; i < repeats; ++i) {
    speed.sample();
    const double t0 = speed.now();
    fn(i);
    s.push_back(speed.now() - t0);
  }
  return median(std::move(s)) / speed.slowdown();
}

}  // namespace perfbench

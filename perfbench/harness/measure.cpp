#include "measure.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <utility>

namespace perfbench {

namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

PinToOneCpu::PinToOneCpu() {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

PinToOneCpu::~PinToOneCpu() { release(); }

void PinToOneCpu::release() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  pinned_ = false;
}

namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

volatile std::uint64_t kernel_sink = 0;

/// The calibration kernel (see SpeedProbe); returns a value that depends on
/// all of its work, so that it cannot be optimised away.
std::uint64_t calibration_kernel() {
  thread_local std::vector<std::uint64_t> heap;
  heap.clear();
  heap.reserve(8192);
  const auto later = std::greater<>();
  std::uint64_t acc = 0, x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t k = 0; k < 40000; ++k) {
    if (heap.size() < 4096 || (xorshift(x) & 1)) {
      heap.push_back(x >> 20);
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      std::pop_heap(heap.begin(), heap.end(), later);
      acc += heap.back();
      heap.pop_back();
    }
    if ((x ^ acc) & 4) acc ^= x;
    else acc += k;
  }
  return acc;
}

}  // namespace

SpeedProbe::SpeedProbe(bool cpu_time) : cpu_time_(cpu_time) {
  kernel_sink = calibration_kernel();  // allocates the thread's heap
}

double SpeedProbe::now() const {
  return cpu_time_ ? thread_cpu_seconds()
                   : std::chrono::duration<double>(
                         Clock::now().time_since_epoch())
                         .count();
}

void SpeedProbe::sample() {
  const double t0 = now();
  kernel_sink = calibration_kernel();
  seconds_.push_back(now() - t0);
}

void SpeedProbe::merge(const SpeedProbe& other) {
  seconds_.insert(seconds_.end(), other.seconds_.begin(), other.seconds_.end());
}

double SpeedProbe::slowdown() const {
  return seconds_.empty() ? 1.0 : median(seconds_) / kReferenceKernelSeconds;
}

double SpeedProbe::slowdown_near(std::size_t i) const {
  if (seconds_.empty()) return 1.0;
  i = std::min(i, seconds_.size() - 1);
  const std::size_t lo = i > kNear ? i - kNear : 0;
  const std::size_t hi = std::min(i + kNear + 1, seconds_.size());
  return median({seconds_.begin() + static_cast<std::ptrdiff_t>(lo),
                 seconds_.begin() + static_cast<std::ptrdiff_t>(hi)}) /
         kReferenceKernelSeconds;
}

Percentile percentile(std::vector<double> samples, double pct) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  p.ok = p.beyond >= kMinBeyond;
  return p;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

int SpanLog::open(std::string name, std::uint64_t request, int parent) {
  Span s;
  s.name = std::move(name);
  s.request = request;
  s.parent = parent;
  s.start_ns = now_ns();
  s.end_ns = s.start_ns;
  return add(std::move(s));
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

int SpanLog::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<std::uint64_t> SpanLog::self_ns() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                               s.end_ns);
  std::vector<std::uint64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t duration = s.end_ns - s.start_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = duration - covered;
  }
  return self;
}

std::map<std::string, std::uint64_t> SpanLog::self_ns_by_name() const {
  std::map<std::string, std::uint64_t> out;
  const auto self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

void SpanLog::write_jsonl(std::ostream& os) const {
  const auto self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"request\":" << s.request << ",\"parent\":" << s.parent
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"self_ns\":" << self[i] << "}\n";
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) fail(0, "metric " + name + " is not finite");
  metrics_[name] = Value{std::isfinite(value) ? value : 0.0, unit};
}

void Report::fail(std::size_t n, const std::string& why) {
  failed_ += n;
  correct_ = false;
  std::cerr << "perfbench: check failed: " << why << "\n";
}

void Report::write_json(std::ostream& os) const {
  std::ostringstream m;
  m << std::setprecision(std::numeric_limits<double>::max_digits10);
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) m << ", ";
    first = false;
    m << "\"" << name << "\": {\"value\": " << v.value << ", \"unit\": \""
      << v.unit << "\"}";
  }
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {" << m.str() << "}}\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// A "Vm...:  <n> kB" field of /proc/self/status in MiB, or -1.
double status_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string key = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size())) / 1024.0;
  return -1.0;
}

}  // namespace

double reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return std::max(0.0, status_mb("VmRSS"));
}

double window_peak_rss_mb() {
  const double hwm = status_mb("VmHWM");
  return hwm >= 0.0 ? hwm : peak_rss_mb();
}

}  // namespace perfbench

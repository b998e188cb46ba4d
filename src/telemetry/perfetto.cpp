#include "telemetry/perfetto.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/spans.hpp"
#include "telemetry/text_sink.hpp"

namespace ioguard::telemetry {

namespace {

constexpr int kVmPid = 1;
constexpr int kDevicePid = 2;

/// Distinct track ids, visited in ascending order: a bitmap for the small
/// ids real traces carry, a sorted list for anything larger.
class TrackIds {
 public:
  void insert(std::uint32_t id) {
    if (id >= kBitmapIds) {
      large_.push_back(id);
      return;
    }
    const std::size_t word = id / 64;
    if (word >= bits_.size()) bits_.resize(word + 1, 0);
    bits_[word] |= std::uint64_t{1} << (id % 64);
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t w = 0; w < bits_.size(); ++w)
      for (std::uint64_t b = bits_[w]; b != 0; b &= b - 1)
        fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(b)));
    std::sort(large_.begin(), large_.end());
    large_.erase(std::unique(large_.begin(), large_.end()), large_.end());
    for (std::uint32_t id : large_) fn(id);
  }

 private:
  static constexpr std::uint32_t kBitmapIds = 1u << 16;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> large_;
};

/// The "traceEvents" array: "  {...}" objects joined by ",\n".
class EventList {
 public:
  explicit EventList(TextSink& out) : out_(out) {}

  /// Opens the next event object; the caller writes its fields and '}'.
  TextSink& begin() {
    out_.lit(first_ ? "  {" : ",\n  {");
    first_ = false;
    return out_;
  }

  /// Opens a metadata event up to its display name; the caller writes the
  /// name and closes with `"}}`.
  TextSink& metadata(const char* what, int pid, std::uint32_t tid) {
    return begin()
        .lit("\"ph\":\"M\",\"name\":\"")
        .lit(what)
        .lit("\",\"pid\":")
        .integer(pid)
        .lit(",\"tid\":")
        .integer(tid)
        .lit(",\"args\":{\"name\":\"");
  }

 private:
  TextSink& out_;
  bool first_ = true;
};

}  // namespace

void write_perfetto_json(std::ostream& os, const core::EventTrace& trace,
                         const PerfettoOptions& options,
                         const std::vector<ProfileCounterTrack>& profile) {
  TextSink out(os);
  out.lit("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  EventList events(out);

  // ---- Track metadata: one thread per VM, one per device. ----------------
  TrackIds vms, devices;
  const std::size_t n = trace.size();
  for (std::size_t i = 0; i < n; ++i) {
    const core::TraceEvent& e = trace.ordered(i);
    if (e.vm.valid()) vms.insert(e.vm.value);
    if (e.device.valid()) devices.insert(e.device.value);
  }
  events.metadata("process_name", kVmPid, 0)
      .escaped(options.process_vms)
      .lit("\"}}");
  events.metadata("process_name", kDevicePid, 0)
      .escaped(options.process_devices)
      .lit("\"}}");
  vms.for_each([&](std::uint32_t vm) {
    events.metadata("thread_name", kVmPid, vm)
        .lit("VM ")
        .integer(vm)
        .lit("\"}}");
  });
  devices.for_each([&](std::uint32_t dev) {
    events.metadata("thread_name", kDevicePid, dev)
        .lit("device ")
        .integer(dev)
        .lit("\"}}");
  });

  const double us = options.us_per_slot;

  // ---- VM tracks: one complete ("X") event per finished job span. --------
  for (const JobSpan& s : collect_spans(trace)) {
    if (!s.vm.valid()) continue;
    if (s.dropped || s.submit == kNeverSlot) continue;
    if (!s.finished()) continue;
    events.begin()
        .lit("\"ph\":\"X\",\"name\":\"job ")
        .integer(s.job.value)
        .lit(" (task ")
        .integer(s.task.value)
        .lit(")\",\"cat\":\"")
        .lit(s.deadline_missed ? "job,missed" : "job")
        .lit("\",\"pid\":")
        .integer(kVmPid)
        .lit(",\"tid\":")
        .integer(s.vm.value)
        .lit(",\"ts\":")
        .real(static_cast<double>(s.submit) * us)
        .lit(",\"dur\":")
        .real(static_cast<double>(s.complete + 1 - s.submit) * us)
        .lit(",\"args\":{\"device\":")
        .integer(s.device.value);
    if (s.expose != kNeverSlot)
      out.lit(",\"shadow_expose_slot\":").integer(s.expose);
    if (s.first_grant != kNeverSlot)
      out.lit(",\"first_grant_slot\":").integer(s.first_grant);
    if (s.deadline_missed)
      out.lit(",\"lateness_slots\":").integer(s.lateness_slots);
    out.lit("}}");
  }

  // ---- Device tracks: slot-aligned channel activity + instants. ----------
  for (std::size_t i = 0; i < n; ++i) {
    const core::TraceEvent& e = trace.ordered(i);
    switch (e.kind) {
      case core::TraceEventKind::kPchannelSlot:
      case core::TraceEventKind::kRchannelGrant: {
        const bool pch = e.kind == core::TraceEventKind::kPchannelSlot;
        events.begin().lit("\"ph\":\"X\",\"name\":\"");
        if (pch)
          out.lit("P-channel");
        else
          out.lit("R-grant vm").integer(e.vm.value);
        out.lit("\",\"cat\":\"")
            .lit(pch ? "pchannel" : "rchannel")
            .lit("\",\"pid\":")
            .integer(kDevicePid)
            .lit(",\"tid\":")
            .integer(e.device.value)
            .lit(",\"ts\":")
            .real(static_cast<double>(e.slot) * us)
            .lit(",\"dur\":")
            .real(us)
            .ch('}');
        break;
      }
      case core::TraceEventKind::kDrop:
      case core::TraceEventKind::kDeadlineMiss:
      case core::TraceEventKind::kDemote:
      case core::TraceEventKind::kFaultInject:
      case core::TraceEventKind::kRetry:
      case core::TraceEventKind::kWatchdogAbort:
      case core::TraceEventKind::kShed:
        events.begin()
            .lit("\"ph\":\"i\",\"s\":\"t\",\"name\":\"")
            .lit(core::to_string(e.kind))
            .lit(" task ")
            .integer(e.task.value)
            .lit("\",\"cat\":\"alert\",\"pid\":")
            .integer(kDevicePid)
            .lit(",\"tid\":")
            .integer(e.device.value)
            .lit(",\"ts\":")
            .real(static_cast<double>(e.slot) * us)
            .ch('}');
        break;
      // Lifecycle phases live on the VM tracks' job spans; mode
      // transitions are VM-wide, not device activity.
      case core::TraceEventKind::kSubmit:
      case core::TraceEventKind::kShadowExpose:
      case core::TraceEventKind::kTranslate:
      case core::TraceEventKind::kDeviceBegin:
      case core::TraceEventKind::kComplete:
      case core::TraceEventKind::kModeSwitch:
      case core::TraceEventKind::kModeRecover:
        break;
    }
  }

  // ---- Cycle-attribution counters (one "C" sample per component). --------
  for (const ProfileCounterTrack& c : profile) {
    events.begin()
        .lit("\"ph\":\"C\",\"name\":\"profile ")
        .escaped(c.name)
        .lit("\",\"pid\":")
        .integer(kDevicePid)
        .lit(",\"tid\":0,\"ts\":0,\"args\":{\"busy\":")
        .integer(c.busy)
        .lit(",\"stall\":")
        .integer(c.stall)
        .lit(",\"quiescent\":")
        .integer(c.quiescent)
        .lit("}}");
  }

  out.lit("\n]}\n");
  out.flush();
}

}  // namespace ioguard::telemetry

// Telemetry subsystem tests: metrics registry semantics, exporter formats,
// span reconstruction from the event trace, golden export bytes, and the
// runner wiring.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/event_trace.hpp"
#include "system/runner.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/spans.hpp"
#include "telemetry/text_sink.hpp"

namespace ioguard {
namespace {

using core::EventTrace;
using core::TraceEvent;
using core::TraceEventKind;
using telemetry::LatencyHistogram;
using telemetry::Labels;
using telemetry::MetricsRegistry;

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, CounterSeriesAreDistinctPerLabels) {
  MetricsRegistry reg;
  reg.counter("jobs_total", {{"vm", "0"}}).inc(3);
  reg.counter("jobs_total", {{"vm", "1"}}).inc();
  EXPECT_EQ(reg.counter("jobs_total", {{"vm", "0"}}).value(), 3u);
  EXPECT_EQ(reg.counter("jobs_total", {{"vm", "1"}}).value(), 1u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, GaugeKeepsLastWrite) {
  MetricsRegistry reg;
  reg.gauge("busy_frac").set(0.25);
  reg.gauge("busy_frac").set(0.75);
  EXPECT_DOUBLE_EQ(reg.gauge("busy_frac").value(), 0.75);
}

TEST(MetricsRegistry, InstrumentReferencesStayStable) {
  MetricsRegistry reg;
  auto& c = reg.counter("a_total");
  // Force more family/instrument allocations, then write via the old ref.
  for (int i = 0; i < 64; ++i)
    reg.counter("churn_total", {{"i", std::to_string(i)}}).inc();
  c.inc(7);
  EXPECT_EQ(reg.counter("a_total").value(), 7u);
}

TEST(MetricsRegistry, MergeAddsCountersAndHistogramsGaugesLastWin) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("n_total").inc(2);
  b.counter("n_total").inc(5);
  a.gauge("g").set(1.0);
  b.gauge("g").set(9.0);
  a.histogram("h_slots", {}, {1.0, 2.0}).observe(0.5);
  b.histogram("h_slots", {}, {1.0, 2.0}).observe(1.5);
  a.merge(b);
  EXPECT_EQ(a.counter("n_total").value(), 7u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 9.0);
  EXPECT_EQ(a.histogram("h_slots", {}, {1.0, 2.0}).count(), 2u);
}

TEST(LatencyHistogram, BucketsCumulativeAndPercentile) {
  LatencyHistogram h({1.0, 2.0, 4.0});
  for (double x : {0.5, 1.5, 1.5, 3.0, 100.0}) h.observe(x);
  EXPECT_EQ(h.count(), 5u);
  ASSERT_EQ(h.counts().size(), 4u);  // 3 finite + implicit +Inf
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);  // +Inf tail
  EXPECT_EQ(h.cumulative(2), 4u);
  // Cumulative counts must be monotone.
  for (std::size_t i = 1; i < h.counts().size(); ++i)
    EXPECT_GE(h.cumulative(i), h.cumulative(i - 1));
  const double p50 = h.percentile(50.0);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  // The +Inf bucket clamps to the largest finite bound.
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 4.0);
}

TEST(LatencyHistogram, EmptyPercentileIsNaN) {
  LatencyHistogram h({1.0});
  EXPECT_TRUE(std::isnan(h.percentile(50.0)));
}

TEST(MetricsRegistry, FormatLabelsCanonical) {
  EXPECT_EQ(telemetry::format_labels({}), "");
  EXPECT_EQ(telemetry::format_labels({{"a", "x"}, {"b", "y"}}),
            "{a=\"x\",b=\"y\"}");
}

// --------------------------------------------------------------- prometheus

TEST(Prometheus, TextExpositionFormat) {
  MetricsRegistry reg;
  reg.counter("ioguard_jobs_total", {{"vm", "0"}}).inc(4);
  reg.gauge("ioguard_busy_fraction").set(0.5);
  auto& h = reg.histogram("ioguard_latency_slots", {}, {1.0, 8.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);

  std::ostringstream os;
  telemetry::write_prometheus(os, reg);
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE ioguard_jobs_total counter"), std::string::npos);
  EXPECT_NE(text.find("ioguard_jobs_total{vm=\"0\"} 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ioguard_busy_fraction gauge"),
            std::string::npos);
  EXPECT_NE(text.find("ioguard_busy_fraction 0.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ioguard_latency_slots histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ioguard_latency_slots_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ioguard_latency_slots_bucket{le=\"8\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ioguard_latency_slots_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ioguard_latency_slots_count 3"), std::string::npos);
  EXPECT_NE(text.find("ioguard_latency_slots_sum"), std::string::npos);
}

// -------------------------------------------------------------------- spans

/// A well-formed lifecycle for job 7 on device 0, VM 1, task 3.
void record_lifecycle(EventTrace& trace) {
  const DeviceId dev{0};
  const VmId vm{1};
  const TaskId task{3};
  const JobId job{7};
  trace.record({10, TraceEventKind::kSubmit, dev, vm, task, job, 0});
  trace.record({12, TraceEventKind::kShadowExpose, dev, vm, task, job, 0});
  trace.record({15, TraceEventKind::kRchannelGrant, dev, vm, task, job, 0});
  trace.record({15, TraceEventKind::kDeviceBegin, dev, vm, task, job, 0});
  trace.record({18, TraceEventKind::kComplete, dev, vm, task, job, 0});
}

TEST(Spans, CollectReconstructsLifecycle) {
  EventTrace trace(64);
  record_lifecycle(trace);
  const auto spans = telemetry::collect_spans(trace);
  ASSERT_EQ(spans.size(), 1u);
  const auto& s = spans[0];
  EXPECT_EQ(s.job.value, 7u);
  EXPECT_EQ(s.vm.value, 1u);
  EXPECT_EQ(s.submit, 10u);
  EXPECT_EQ(s.expose, 12u);
  EXPECT_EQ(s.first_grant, 15u);
  EXPECT_EQ(s.device_begin, 15u);
  EXPECT_EQ(s.complete, 18u);
  EXPECT_TRUE(s.finished());
  EXPECT_FALSE(s.dropped);
  EXPECT_FALSE(s.deadline_missed);
}

TEST(Spans, PchannelAndInvalidJobsAreNotSpanned) {
  EventTrace trace(64);
  // P-channel synthetic id (high bit) and an invalid id must be skipped.
  trace.record({5, TraceEventKind::kPchannelSlot, DeviceId{0}, VmId{0},
                TaskId{1}, JobId{0x40000001u}, 0});
  trace.record({5, TraceEventKind::kComplete, DeviceId{0}, VmId{0}, TaskId{1},
                JobId{0x40000001u}, 0});
  trace.record({6, TraceEventKind::kDemote, DeviceId{0}, VmId{0}, TaskId{2},
                JobId{}, 0});
  EXPECT_TRUE(telemetry::collect_spans(trace).empty());
}

TEST(Spans, DropAndDeadlineMissAnnotate) {
  EventTrace trace(64);
  trace.record({4, TraceEventKind::kDrop, DeviceId{0}, VmId{0}, TaskId{1},
                JobId{2}, 0});
  record_lifecycle(trace);
  trace.record({18, TraceEventKind::kDeadlineMiss, DeviceId{0}, VmId{1},
                TaskId{3}, JobId{7}, 5});
  const auto spans = telemetry::collect_spans(trace);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].dropped);
  EXPECT_EQ(spans[0].submit, 4u);  // drop slot doubles as submit time
  EXPECT_TRUE(spans[1].deadline_missed);
  EXPECT_EQ(spans[1].lateness_slots, 5u);
}

TEST(Spans, FoldStagesComputesWaits) {
  EventTrace trace(64);
  record_lifecycle(trace);
  auto b = telemetry::fold_stages(telemetry::collect_spans(trace));
  EXPECT_EQ(b.finished_jobs, 1u);
  EXPECT_EQ(b.unfinished_jobs, 0u);
  ASSERT_EQ(b.pool_wait.count(), 1u);
  EXPECT_DOUBLE_EQ(b.pool_wait.percentile(50.0), 2.0);   // 12 - 10
  EXPECT_DOUBLE_EQ(b.shadow_wait.percentile(50.0), 3.0); // 15 - 12
  EXPECT_DOUBLE_EQ(b.service.percentile(50.0), 4.0);     // 18 - 15 + 1
  EXPECT_DOUBLE_EQ(b.total.percentile(50.0), 9.0);       // 18 - 10 + 1
}

TEST(Spans, UnfinishedJobCounted) {
  EventTrace trace(64);
  trace.record({10, TraceEventKind::kSubmit, DeviceId{0}, VmId{0}, TaskId{1},
                JobId{9}, 0});
  auto b = telemetry::fold_stages(telemetry::collect_spans(trace));
  EXPECT_EQ(b.finished_jobs, 0u);
  EXPECT_EQ(b.unfinished_jobs, 1u);
  EXPECT_TRUE(b.total.empty());
}

TEST(Spans, PrintStageBreakdownRendersTable) {
  EventTrace trace(64);
  record_lifecycle(trace);
  auto b = telemetry::fold_stages(telemetry::collect_spans(trace));
  std::ostringstream os;
  telemetry::print_stage_breakdown(os, b);
  const std::string out = os.str();
  EXPECT_NE(out.find("pool wait"), std::string::npos);
  EXPECT_NE(out.find("p95"), std::string::npos);
  EXPECT_NE(out.find("1 finished"), std::string::npos);
}

TEST(Spans, RegisterSpanMetricsFillsRegistry) {
  EventTrace trace(64);
  record_lifecycle(trace);
  trace.record({18, TraceEventKind::kTranslate, DeviceId{0}, VmId{1},
                TaskId{3}, JobId{7}, 40});
  MetricsRegistry reg;
  telemetry::register_span_metrics(trace, reg);
  EXPECT_EQ(reg.counter("ioguard_trace_events_total", {{"kind", "submit"}})
                .value(),
            1u);
  EXPECT_EQ(reg.histogram("ioguard_stage_latency_slots",
                          {{"stage", "total"}, {"device", "0"}})
                .count(),
            1u);
  EXPECT_EQ(reg.histogram("ioguard_translation_cycles", {{"device", "0"}},
                          telemetry::default_cycle_buckets())
                .count(),
            1u);
}

// ----------------------------------------------------------------- perfetto

TEST(Perfetto, EmitsTracksSpansAndInstants) {
  EventTrace trace(64);
  record_lifecycle(trace);
  trace.record({20, TraceEventKind::kPchannelSlot, DeviceId{1}, VmId{0},
                TaskId{0}, JobId{0x40000001u}, 0});
  trace.record({21, TraceEventKind::kDrop, DeviceId{0}, VmId{2}, TaskId{4},
                JobId{11}, 0});

  std::ostringstream os;
  telemetry::write_perfetto_json(os, trace);
  const std::string json = os.str();

  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // job span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // drop instant
  // Balanced braces/brackets => at least structurally sane JSON.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ---------------------------------------------------------------- text sink

/// `os << v` at precision 15 -- what both exporters printed through
/// iostreams, and what TextSink::real must reproduce byte for byte.
std::string ostream_real(double v) {
  std::ostringstream os;
  os.precision(15);
  os << v;
  return os.str();
}

std::string sink_real(double v) {
  std::ostringstream os;
  telemetry::TextSink sink(os);
  sink.real(v);
  sink.flush();
  return os.str();
}

TEST(TextSink, RealMatchesOstreamAtPrecision15) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.1 + 0.2, 1e-7, 2.0 / 3.0, 123.456,
      1e15 - 1, 1e15, 1e15 + 1, -1e15 + 1, -1e15, 999999999999999.5,
      99999999999999.95, 9007199254740992.0, 1e300, -1e-300, 5e-324,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  // Slot-aligned timestamps at the exporter's usual and odd slot widths.
  for (const double us : {10.0, 2.5, 0.1, 1.0 / 3.0})
    for (const Slot slot : {Slot{0}, Slot{1}, Slot{7}, Slot{12345},
                            Slot{99999999999999}, Slot{100000000000000},
                            Slot{123456789012345}})
      values.push_back(static_cast<double>(slot) * us);
  // Arbitrary bit patterns: every exponent, both signs, subnormals.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = std::bit_cast<double>(x);
    if (!std::isnan(v)) values.push_back(v);
    values.push_back(static_cast<double>(x % 2000000000000000ull) -
                     1e15);  // integers straddling the fast-path bound
  }
  for (const double v : values) ASSERT_EQ(sink_real(v), ostream_real(v)) << v;
}

TEST(TextSink, EscapesLikeJson) {
  std::ostringstream os;
  telemetry::TextSink sink(os);
  sink.escaped(std::string("a\"b\\c\nd\te\x01\x1f\x7f") + '\0' + "z");
  sink.flush();
  EXPECT_EQ(os.str(), "a\\\"b\\\\c\\nd\\te\\u0001\\u001f\x7f\\u0000z");
}

/// Records every write the stream receives.
class RecordingBuf : public std::streambuf {
 public:
  std::vector<std::size_t> sizes;
  std::string text;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    sizes.push_back(static_cast<std::size_t>(n));
    text.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }
};

TEST(TextSink, FlushesInChunksNeverTheWholeFile) {
  RecordingBuf buf;
  std::ostream os(&buf);
  telemetry::TextSink sink(os);
  std::string expected;
  const std::string line(100, 'x');
  const std::string long_literal(1000, 'y');  // bypasses the buffer
  for (int i = 0; i < 5000; ++i) {
    sink.lit(line).integer(i).ch('\n');
    expected += line + std::to_string(i) + '\n';
    if (i % 1000 == 0) {
      sink.lit(long_literal);
      expected += long_literal;
    }
  }
  sink.flush();
  EXPECT_EQ(buf.text, expected);
  ASSERT_GT(buf.text.size(), 7 * telemetry::TextSink::kChunk);
  EXPECT_GE(buf.sizes.size(), 7u);
  for (const std::size_t n : buf.sizes)
    EXPECT_LE(n, telemetry::TextSink::kChunk + 256);
}

// ------------------------------------------------------------ golden bytes

/// One event of every TraceEventKind (16), around two job lifecycles (one
/// late), on three devices and four VMs; a few ids left invalid.
EventTrace all_kinds_trace() {
  EventTrace trace(64);
  const JobId none{};
  trace.record({10, TraceEventKind::kSubmit, DeviceId{0}, VmId{1}, TaskId{3},
                JobId{7}, 0});
  trace.record({12, TraceEventKind::kShadowExpose, DeviceId{0}, VmId{1},
                TaskId{3}, JobId{7}, 0});
  trace.record({13, TraceEventKind::kTranslate, DeviceId{0}, VmId{1},
                TaskId{3}, JobId{7}, 40});
  trace.record({15, TraceEventKind::kRchannelGrant, DeviceId{0}, VmId{1},
                TaskId{3}, JobId{7}, 0});
  trace.record({15, TraceEventKind::kDeviceBegin, DeviceId{0}, VmId{1},
                TaskId{3}, JobId{7}, 0});
  trace.record({18, TraceEventKind::kComplete, DeviceId{0}, VmId{1},
                TaskId{3}, JobId{7}, 0});
  trace.record({18, TraceEventKind::kDeadlineMiss, DeviceId{0}, VmId{1},
                TaskId{3}, JobId{7}, 5});
  trace.record({20, TraceEventKind::kPchannelSlot, DeviceId{1}, VmId{0},
                TaskId{0}, JobId{0x40000001u}, 0});
  trace.record({21, TraceEventKind::kDrop, DeviceId{0}, VmId{2}, TaskId{4},
                JobId{11}, 0});
  trace.record({22, TraceEventKind::kDemote, DeviceId{2}, VmId{3}, TaskId{5},
                none, 0});
  trace.record({23, TraceEventKind::kFaultInject, DeviceId{1}, VmId{}, TaskId{},
                none, 2});
  trace.record({24, TraceEventKind::kRetry, DeviceId{0}, VmId{2}, TaskId{4},
                JobId{12}, 1});
  trace.record({25, TraceEventKind::kWatchdogAbort, DeviceId{2}, VmId{0},
                TaskId{6}, JobId{13}, 9});
  trace.record({26, TraceEventKind::kShed, DeviceId{2}, VmId{2}, TaskId{4},
                none, 3});
  trace.record({27, TraceEventKind::kModeSwitch, DeviceId{}, VmId{1}, TaskId{},
                none, 2});
  trace.record({30, TraceEventKind::kSubmit, DeviceId{1}, VmId{2}, TaskId{8},
                JobId{14}, 0});
  trace.record({31, TraceEventKind::kRchannelGrant, DeviceId{1}, VmId{2},
                TaskId{8}, JobId{14}, 0});
  trace.record({31, TraceEventKind::kDeviceBegin, DeviceId{1}, VmId{2},
                TaskId{8}, JobId{14}, 0});
  trace.record({33, TraceEventKind::kComplete, DeviceId{1}, VmId{2},
                TaskId{8}, JobId{14}, 0});
  trace.record({40, TraceEventKind::kModeRecover, DeviceId{}, VmId{1},
                TaskId{}, none, 0});
  return trace;
}

/// A short lifecycle at odd slots plus one channel slot, for us_per_slot
/// values whose products are not integral.
EventTrace odd_slot_trace() {
  EventTrace trace(64);
  trace.record({3, TraceEventKind::kSubmit, DeviceId{0}, VmId{0}, TaskId{1},
                JobId{2}, 0});
  trace.record({7, TraceEventKind::kRchannelGrant, DeviceId{0}, VmId{0},
                TaskId{1}, JobId{2}, 0});
  trace.record({7, TraceEventKind::kDeviceBegin, DeviceId{0}, VmId{0},
                TaskId{1}, JobId{2}, 0});
  trace.record({9, TraceEventKind::kComplete, DeviceId{0}, VmId{0}, TaskId{1},
                JobId{2}, 0});
  trace.record({11, TraceEventKind::kPchannelSlot, DeviceId{1}, VmId{0},
                TaskId{0}, JobId{0x40000002u}, 0});
  return trace;
}

/// Slots around 1e14: at 10 us/slot, ts crosses 1e15, where %.15g switches
/// to the exponent form.
EventTrace huge_slot_trace() {
  EventTrace trace(64);
  for (const Slot slot : {Slot{99999999999999}, Slot{100000000000000},
                          Slot{123456789012345}})
    trace.record({slot, TraceEventKind::kPchannelSlot, DeviceId{0}, VmId{0},
                  TaskId{0}, JobId{0x40000003u}, 0});
  trace.record({Slot{100000000000000}, TraceEventKind::kSubmit, DeviceId{0},
                VmId{1}, TaskId{2}, JobId{5}, 0});
  trace.record({Slot{100000000000003}, TraceEventKind::kComplete, DeviceId{0},
                VmId{1}, TaskId{2}, JobId{5}, 0});
  return trace;
}

/// Track ids far apart, some past the exporter's bitmap range.
EventTrace sparse_id_trace() {
  EventTrace trace(64);
  for (const std::uint32_t id : {0x80000000u, 70000u, 3u, 65535u, 65536u,
                                 70000u, 0xfffffffeu, 64u})
    trace.record({1, TraceEventKind::kPchannelSlot, DeviceId{id},
                  VmId{id ^ 1u}, TaskId{0}, JobId{0x40000004u}, 0});
  return trace;
}

/// A full 65,536-event ring after 90,000 records (so it has wrapped):
/// lifecycles, channel slots and alerts from a fixed arithmetic sequence.
EventTrace wrapped_ring_trace() {
  EventTrace trace(1 << 16);
  std::uint64_t x = 88172645463325252ull;
  Slot slot = 0;
  std::uint32_t job = 0;
  while (trace.total_recorded() < 90000) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const DeviceId dev{static_cast<std::uint32_t>(x % 4)};
    const VmId vm{static_cast<std::uint32_t>((x >> 8) % 8)};
    const TaskId task{static_cast<std::uint32_t>((x >> 16) % 40)};
    slot += 1 + (x >> 24) % 3;
    if ((x >> 32) % 5 == 0) {
      trace.record({slot, TraceEventKind::kPchannelSlot, dev, vm, task,
                    JobId{0x40000000u + job++}, 0});
      continue;
    }
    const JobId id{job++};
    trace.record({slot, TraceEventKind::kSubmit, dev, vm, task, id, 0});
    if ((x >> 40) % 17 == 0) {
      trace.record({slot, TraceEventKind::kDrop, dev, vm, task, id, 0});
      continue;
    }
    trace.record({slot + 1, TraceEventKind::kShadowExpose, dev, vm, task, id,
                  0});
    trace.record({slot + 2, TraceEventKind::kRchannelGrant, dev, vm, task, id,
                  0});
    trace.record({slot + 2, TraceEventKind::kDeviceBegin, dev, vm, task, id,
                  0});
    const Slot done = slot + 2 + (x >> 44) % 6;
    trace.record({done, TraceEventKind::kComplete, dev, vm, task, id, 0});
    if ((x >> 50) % 11 == 0)
      trace.record({done, TraceEventKind::kDeadlineMiss, dev, vm, task, id,
                    static_cast<std::uint32_t>((x >> 56) % 9 + 1)});
  }
  return trace;
}

/// FNV-1a, 64-bit.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string perfetto_text(const EventTrace& trace,
                          const telemetry::PerfettoOptions& options = {},
                          const std::vector<telemetry::ProfileCounterTrack>&
                              profile = {}) {
  std::ostringstream os;
  telemetry::write_perfetto_json(os, trace, options, profile);
  return os.str();
}

/// Gauges and histogram bounds whose %.15g forms are easy to get wrong.
MetricsRegistry awkward_registry() {
  MetricsRegistry reg;
  reg.counter("ioguard_a_total").inc(18446744073709551615ull);
  reg.counter("ioguard_b_total", {{"vm", "0"}, {"dev", "x"}}).inc(3);
  reg.gauge("ioguard_g", {{"v", "nan"}}).set(std::nan(""));
  reg.gauge("ioguard_g", {{"v", "inf"}})
      .set(std::numeric_limits<double>::infinity());
  reg.gauge("ioguard_g", {{"v", "-inf"}})
      .set(-std::numeric_limits<double>::infinity());
  reg.gauge("ioguard_g", {{"v", "-0"}}).set(-0.0);
  reg.gauge("ioguard_g", {{"v", "1e-7"}}).set(1e-7);
  reg.gauge("ioguard_g", {{"v", "0.1+0.2"}}).set(0.1 + 0.2);
  reg.gauge("ioguard_g", {{"v", "1e15"}}).set(1e15);
  reg.gauge("ioguard_g", {{"v", "-123456789012345"}}).set(-123456789012345.0);
  reg.gauge("ioguard_g", {{"v", "2/3"}}).set(2.0 / 3.0);
  reg.gauge("ioguard_plain").set(4.0);
  auto& h = reg.histogram("ioguard_h_slots", {},
                          {1e-7, 0.1 + 0.2, 0.5, 1.0, 2.5, 1e15, 1e16});
  for (const double v : {0.0, 0.25, 0.3, 3.0, 1e15, 5e16}) h.observe(v);
  auto& hl = reg.histogram("ioguard_hl_slots", {{"stage", "total"}},
                           {-0.5, 0.1 + 0.2});
  hl.observe(0.1);
  hl.observe(0.2);
  return reg;
}

constexpr std::string_view kAllKindsPerfetto = R"golden({"displayTimeUnit":"ms","traceEvents":[
  {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"R-channel jobs"}},
  {"ph":"M","name":"process_name","pid":2,"tid":0,"args":{"name":"Devices"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"VM 0"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"VM 1"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":2,"args":{"name":"VM 2"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":3,"args":{"name":"VM 3"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":0,"args":{"name":"device 0"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":1,"args":{"name":"device 1"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":2,"args":{"name":"device 2"}},
  {"ph":"X","name":"job 7 (task 3)","cat":"job,missed","pid":1,"tid":1,"ts":100,"dur":90,"args":{"device":0,"shadow_expose_slot":12,"first_grant_slot":15,"lateness_slots":5}},
  {"ph":"X","name":"job 14 (task 8)","cat":"job","pid":1,"tid":2,"ts":300,"dur":40,"args":{"device":1,"first_grant_slot":31}},
  {"ph":"X","name":"R-grant vm1","cat":"rchannel","pid":2,"tid":0,"ts":150,"dur":10},
  {"ph":"i","s":"t","name":"deadline_miss task 3","cat":"alert","pid":2,"tid":0,"ts":180},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":1,"ts":200,"dur":10},
  {"ph":"i","s":"t","name":"drop task 4","cat":"alert","pid":2,"tid":0,"ts":210},
  {"ph":"i","s":"t","name":"demote task 5","cat":"alert","pid":2,"tid":2,"ts":220},
  {"ph":"i","s":"t","name":"fault_inject task 4294967295","cat":"alert","pid":2,"tid":1,"ts":230},
  {"ph":"i","s":"t","name":"retry task 4","cat":"alert","pid":2,"tid":0,"ts":240},
  {"ph":"i","s":"t","name":"watchdog_abort task 6","cat":"alert","pid":2,"tid":2,"ts":250},
  {"ph":"i","s":"t","name":"shed task 4","cat":"alert","pid":2,"tid":2,"ts":260},
  {"ph":"X","name":"R-grant vm2","cat":"rchannel","pid":2,"tid":1,"ts":310,"dur":10}
]}
)golden";

constexpr std::string_view kOddSlotsAt2_5us = R"golden({"displayTimeUnit":"ms","traceEvents":[
  {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"R-channel jobs"}},
  {"ph":"M","name":"process_name","pid":2,"tid":0,"args":{"name":"Devices"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"VM 0"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":0,"args":{"name":"device 0"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":1,"args":{"name":"device 1"}},
  {"ph":"X","name":"job 2 (task 1)","cat":"job","pid":1,"tid":0,"ts":7.5,"dur":17.5,"args":{"device":0,"first_grant_slot":7}},
  {"ph":"X","name":"R-grant vm0","cat":"rchannel","pid":2,"tid":0,"ts":17.5,"dur":2.5},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":1,"ts":27.5,"dur":2.5}
]}
)golden";

constexpr std::string_view kOddSlotsAt0_1us = R"golden({"displayTimeUnit":"ms","traceEvents":[
  {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"R-channel jobs"}},
  {"ph":"M","name":"process_name","pid":2,"tid":0,"args":{"name":"Devices"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"VM 0"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":0,"args":{"name":"device 0"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":1,"args":{"name":"device 1"}},
  {"ph":"X","name":"job 2 (task 1)","cat":"job","pid":1,"tid":0,"ts":0.3,"dur":0.7,"args":{"device":0,"first_grant_slot":7}},
  {"ph":"X","name":"R-grant vm0","cat":"rchannel","pid":2,"tid":0,"ts":0.7,"dur":0.1},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":1,"ts":1.1,"dur":0.1}
]}
)golden";

constexpr std::string_view kHugeSlotsPerfetto = R"golden({"displayTimeUnit":"ms","traceEvents":[
  {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"R-channel jobs"}},
  {"ph":"M","name":"process_name","pid":2,"tid":0,"args":{"name":"Devices"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"VM 0"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"VM 1"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":0,"args":{"name":"device 0"}},
  {"ph":"X","name":"job 5 (task 2)","cat":"job","pid":1,"tid":1,"ts":1e+15,"dur":40,"args":{"device":0}},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":0,"ts":999999999999990,"dur":10},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":0,"ts":1e+15,"dur":10},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":0,"ts":1.23456789012345e+15,"dur":10}
]}
)golden";

constexpr std::string_view kEscapedNamesPerfetto = R"golden({"displayTimeUnit":"ms","traceEvents":[
  {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"VMs \"quoted\" \\ back"}},
  {"ph":"M","name":"process_name","pid":2,"tid":0,"args":{"name":"dev\u0001\ttab\nnl\u001f"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"VM 0"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":0,"args":{"name":"device 0"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":1,"args":{"name":"device 1"}},
  {"ph":"X","name":"job 2 (task 1)","cat":"job","pid":1,"tid":0,"ts":30,"dur":70,"args":{"device":0,"first_grant_slot":7}},
  {"ph":"X","name":"R-grant vm0","cat":"rchannel","pid":2,"tid":0,"ts":70,"dur":10},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":1,"ts":110,"dur":10},
  {"ph":"C","name":"profile issue \"q\"\\","pid":2,"tid":0,"ts":0,"args":{"busy":1,"stall":2,"quiescent":3}},
  {"ph":"C","name":"profile vmm\u0002","pid":2,"tid":0,"ts":0,"args":{"busy":4,"stall":5,"quiescent":6}}
]}
)golden";

constexpr std::string_view kAwkwardPrometheus = R"golden(# TYPE ioguard_a_total counter
ioguard_a_total 18446744073709551615
# TYPE ioguard_b_total counter
ioguard_b_total{vm="0",dev="x"} 3
# TYPE ioguard_g gauge
ioguard_g{v="-0"} -0
ioguard_g{v="-123456789012345"} -123456789012345
ioguard_g{v="-inf"} -inf
ioguard_g{v="0.1+0.2"} 0.3
ioguard_g{v="1e-7"} 1e-07
ioguard_g{v="1e15"} 1e+15
ioguard_g{v="2/3"} 0.666666666666667
ioguard_g{v="inf"} inf
ioguard_g{v="nan"} NaN
# TYPE ioguard_h_slots histogram
ioguard_h_slots_bucket{le="1e-07"} 1
ioguard_h_slots_bucket{le="0.3"} 3
ioguard_h_slots_bucket{le="0.5"} 3
ioguard_h_slots_bucket{le="1"} 3
ioguard_h_slots_bucket{le="2.5"} 3
ioguard_h_slots_bucket{le="1e+15"} 5
ioguard_h_slots_bucket{le="1e+16"} 5
ioguard_h_slots_bucket{le="+Inf"} 6
ioguard_h_slots_sum 5.1e+16
ioguard_h_slots_count 6
# TYPE ioguard_hl_slots histogram
ioguard_hl_slots_bucket{stage="total",le="-0.5"} 0
ioguard_hl_slots_bucket{stage="total",le="0.3"} 2
ioguard_hl_slots_bucket{stage="total",le="+Inf"} 2
ioguard_hl_slots_sum{stage="total"} 0.3
ioguard_hl_slots_count{stage="total"} 2
# TYPE ioguard_plain gauge
ioguard_plain 4
)golden";

constexpr std::string_view kSparseIdsPerfetto = R"golden({"displayTimeUnit":"ms","traceEvents":[
  {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"R-channel jobs"}},
  {"ph":"M","name":"process_name","pid":2,"tid":0,"args":{"name":"Devices"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":2,"args":{"name":"VM 2"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":65,"args":{"name":"VM 65"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":65534,"args":{"name":"VM 65534"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":65537,"args":{"name":"VM 65537"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":70001,"args":{"name":"VM 70001"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":2147483649,"args":{"name":"VM 2147483649"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":3,"args":{"name":"device 3"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":64,"args":{"name":"device 64"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":65535,"args":{"name":"device 65535"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":65536,"args":{"name":"device 65536"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":70000,"args":{"name":"device 70000"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":2147483648,"args":{"name":"device 2147483648"}},
  {"ph":"M","name":"thread_name","pid":2,"tid":4294967294,"args":{"name":"device 4294967294"}},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":2147483648,"ts":10,"dur":10},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":70000,"ts":10,"dur":10},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":3,"ts":10,"dur":10},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":65535,"ts":10,"dur":10},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":65536,"ts":10,"dur":10},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":70000,"ts":10,"dur":10},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":4294967294,"ts":10,"dur":10},
  {"ph":"X","name":"P-channel","cat":"pchannel","pid":2,"tid":64,"ts":10,"dur":10}
]}
)golden";

constexpr std::size_t kWrappedRingBytes = 3492823;
constexpr std::uint64_t kWrappedRingFnv = 1207388033073274776ull;

// Expected bytes below were captured from the iostream-based exporters
// these writers replaced; the outputs must stay identical.

TEST(ExportGolden, PerfettoAllKinds) {
  EXPECT_EQ(perfetto_text(all_kinds_trace()), kAllKindsPerfetto);
}

TEST(ExportGolden, PerfettoFractionalSlotWidths) {
  telemetry::PerfettoOptions options;
  options.us_per_slot = 2.5;
  EXPECT_EQ(perfetto_text(odd_slot_trace(), options), kOddSlotsAt2_5us);
  options.us_per_slot = 0.1;
  EXPECT_EQ(perfetto_text(odd_slot_trace(), options), kOddSlotsAt0_1us);
}

TEST(ExportGolden, PerfettoExponentTimestamps) {
  EXPECT_EQ(perfetto_text(huge_slot_trace()), kHugeSlotsPerfetto);
}

TEST(ExportGolden, PerfettoEscapesNames) {
  telemetry::PerfettoOptions options;
  options.process_vms = "VMs \"quoted\" \\ back";
  options.process_devices = "dev\x01\ttab\nnl\x1f";
  EXPECT_EQ(perfetto_text(odd_slot_trace(), options,
                          {{"issue \"q\"\\", 1, 2, 3}, {"vmm\x02", 4, 5, 6}}),
            kEscapedNamesPerfetto);
}

TEST(ExportGolden, PerfettoTrackIdsAscending) {
  EXPECT_EQ(perfetto_text(sparse_id_trace()), kSparseIdsPerfetto);
}

TEST(ExportGolden, PerfettoWrappedRingDigest) {
  const EventTrace trace = wrapped_ring_trace();
  ASSERT_EQ(trace.size(), std::size_t{1} << 16);
  const std::string json = perfetto_text(trace);
  EXPECT_GT(json.size(), 8 * telemetry::TextSink::kChunk);
  EXPECT_EQ(json.size(), kWrappedRingBytes);
  EXPECT_EQ(fnv1a(json), kWrappedRingFnv);
}

TEST(ExportGolden, PrometheusAwkwardValues) {
  std::ostringstream os;
  telemetry::write_prometheus(os, awkward_registry());
  EXPECT_EQ(os.str(), kAwkwardPrometheus);
}

// ------------------------------------------------------------ runner wiring

sys::TrialConfig small_trial() {
  sys::TrialConfig tc;
  tc.kind = sys::SystemKind::kIoGuard;
  tc.workload.num_vms = 4;
  tc.workload.target_utilization = 0.4;
  tc.min_jobs_per_task = 5;
  tc.trial_seed = 3;
  return tc;
}

TEST(RunnerTelemetry, TraceAndMetricsFilledWhenAttached) {
  // Large enough that no event is overwritten: every span keeps its submit.
  core::EventTrace trace(1 << 20);
  telemetry::MetricsRegistry reg;
  sys::TrialConfig tc = small_trial();
  tc.trace = &trace;
  tc.metrics = &reg;
  const auto result = sys::run_trial(tc);
  EXPECT_GT(result.jobs_counted, 0u);

  // The hypervisor recorded full lifecycles...
  ASSERT_EQ(trace.overwritten(), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kSubmit), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kShadowExpose), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kRchannelGrant), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kDeviceBegin), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kComplete), 0u);
  EXPECT_GT(trace.count(TraceEventKind::kTranslate), 0u);

  // ...spans reconstruct with consistent ordering...
  const auto spans = telemetry::collect_spans(trace);
  ASSERT_FALSE(spans.empty());
  std::size_t finished = 0;
  for (const auto& s : spans) {
    if (!s.finished() || s.dropped) continue;
    ++finished;
    ASSERT_NE(s.submit, kNeverSlot);
    EXPECT_LE(s.submit, s.expose);
    EXPECT_LE(s.expose, s.first_grant);
    EXPECT_LE(s.first_grant, s.complete);
  }
  EXPECT_GT(finished, 0u);

  // ...and the registry carries both runner counters and span metrics.
  EXPECT_EQ(reg.counter("ioguard_trial_jobs_total",
                        {{"system", "I/O-GUARD"}, {"outcome", "counted"}})
                .value(),
            result.jobs_counted);
  EXPECT_GT(reg.counter("ioguard_trace_events_total", {{"kind", "complete"}})
                .value(),
            0u);
  EXPECT_GT(reg.counter("ioguard_translations_total", {{"device", "0"}})
                .value(),
            0u);
}

TEST(RunnerTelemetry, DeterministicAcrossRuns) {
  core::EventTrace t1(1 << 16);
  core::EventTrace t2(1 << 16);
  sys::TrialConfig tc = small_trial();
  tc.trace = &t1;
  (void)sys::run_trial(tc);
  tc.trace = &t2;
  (void)sys::run_trial(tc);
  ASSERT_EQ(t1.size(), t2.size());
  std::ostringstream a;
  std::ostringstream b;
  t1.dump_csv(a);
  t2.dump_csv(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(RunnerTelemetry, DisabledHooksRecordNothing) {
  sys::TrialConfig tc = small_trial();
  const auto with_off = sys::run_trial(tc);
  core::EventTrace trace(1 << 16);
  tc.trace = &trace;
  const auto with_on = sys::run_trial(tc);
  // Telemetry must not perturb the simulation.
  EXPECT_EQ(with_off.jobs_counted, with_on.jobs_counted);
  EXPECT_EQ(with_off.jobs_on_time, with_on.jobs_on_time);
  EXPECT_EQ(with_off.misses, with_on.misses);
  EXPECT_DOUBLE_EQ(with_off.goodput_bytes_per_s, with_on.goodput_bytes_per_s);
}

TEST(RunnerTelemetry, SummaryJsonHasRequiredKeys) {
  sys::TrialConfig tc = small_trial();
  tc.collect_response_times = true;
  auto result = sys::run_trial(tc);
  std::ostringstream os;
  sys::write_trial_summary_json(os, tc, result);
  const std::string json = os.str();
  for (const char* key :
       {"\"system\"", "\"horizon_slots\"", "\"jobs_counted\"",
        "\"jobs_on_time\"", "\"misses\"", "\"critical_misses\"",
        "\"dropped\"", "\"goodput_bytes_per_s\"", "\"device_busy_frac\"",
        "\"admitted\"", "\"success\"", "\"response_slots\"",
        "\"misses_by_task\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace ioguard

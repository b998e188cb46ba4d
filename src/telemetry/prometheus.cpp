#include "telemetry/prometheus.hpp"

#include <cmath>
#include <ostream>
#include <string>

#include "telemetry/text_sink.hpp"

namespace ioguard::telemetry {

namespace {

void write_value(TextSink& out, double v) {
  if (std::isnan(v)) {
    out.lit("NaN");
  } else {
    out.real(v);
  }
}

/// Writes `{a="x"` -- the label block without its closing brace.
void open_labels(TextSink& out, const Labels& labels) {
  char sep = '{';
  for (const auto& l : labels) {
    out.ch(sep).lit(l.key).lit("=\"").lit(l.value).ch('"');
    sep = ',';
  }
}

/// Writes `{a="x"}`, or nothing for an empty label set.
void write_labels(TextSink& out, const Labels& labels) {
  if (labels.empty()) return;
  open_labels(out, labels);
  out.ch('}');
}

/// Writes `name_bucket{a="x",le="` up to the bound itself.
void open_bucket(TextSink& out, const std::string& name,
                 const Labels& labels) {
  out.lit(name).lit("_bucket");
  open_labels(out, labels);
  out.lit(labels.empty() ? "{le=\"" : ",le=\"");
}

const char* type_name(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::kCounter: return "counter";
    case MetricsRegistry::Kind::kGauge: return "gauge";
    case MetricsRegistry::Kind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsRegistry& registry) {
  TextSink out(os);
  std::string current_family;
  for (const auto& e : registry.entries()) {
    if (e.name != current_family) {
      current_family = e.name;
      out.lit("# TYPE ").lit(e.name).ch(' ').lit(type_name(e.kind)).ch('\n');
    }
    switch (e.kind) {
      case MetricsRegistry::Kind::kCounter:
        out.lit(e.name);
        write_labels(out, e.labels);
        out.ch(' ').integer(e.counter->value()).ch('\n');
        break;
      case MetricsRegistry::Kind::kGauge:
        out.lit(e.name);
        write_labels(out, e.labels);
        out.ch(' ');
        write_value(out, e.gauge->value());
        out.ch('\n');
        break;
      case MetricsRegistry::Kind::kHistogram: {
        const LatencyHistogram& h = *e.histogram;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          open_bucket(out, e.name, e.labels);
          write_value(out, h.bounds()[i]);
          out.lit("\"} ").integer(h.cumulative(i)).ch('\n');
        }
        open_bucket(out, e.name, e.labels);
        out.lit("+Inf\"} ").integer(h.count()).ch('\n');
        out.lit(e.name).lit("_sum");
        write_labels(out, e.labels);
        out.ch(' ');
        write_value(out, h.sum());
        out.ch('\n').lit(e.name).lit("_count");
        write_labels(out, e.labels);
        out.ch(' ').integer(h.count()).ch('\n');
        break;
      }
    }
  }
  out.flush();
}

}  // namespace ioguard::telemetry

#include "runtime/telemetry/export.hpp"

#include <cstdio>
#include <sstream>

#include "common/report.hpp"

namespace dsra::runtime::telemetry {

namespace {

// Track layout of the exported trace. The modeled pids tick in array
// cycles; the host pid ticks in microseconds of host wall time.
constexpr int kPidModeledFabrics = 1;
constexpr int kPidModeledStreams = 2;
constexpr int kPidHostWorkers = 3;

void emit_metadata(std::ostringstream& os, bool& first, int pid, int tid,
                   const std::string& name, const std::string& what) {
  os << (first ? "\n" : ",\n") << "    {\"name\": \"" << what
     << "\", \"ph\": \"M\", \"pid\": " << pid;
  if (what == "thread_name") os << ", \"tid\": " << tid;
  os << ", \"args\": {\"name\": \"" << json_escape(name) << "\"}}";
  first = false;
}

void emit_span(std::ostringstream& os, bool& first, const Span& s, int pid, int tid,
               double ts, double dur) {
  os << (first ? "\n" : ",\n") << "    {\"name\": \"" << to_string(s.kind)
     << "\", \"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << tid
     << ", \"ts\": " << json_number(ts) << ", \"dur\": " << json_number(dur)
     << ", \"args\": {\"stream\": " << s.stream_id << ", \"frame\": " << s.frame_index
     << ", \"fabric\": " << s.fabric_id << ", \"stage\": \"" << to_string(s.stage)
     << "\", \"context\": \"" << json_escape(s.context) << "\"}}";
  first = false;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace

std::string chrome_trace_json(const RunReport& report, const TraceExportOptions& opts) {
  std::ostringstream os;
  os << "{\n  \"traceEvents\": [";
  bool first = true;

  // Track naming first, in a fixed order, so the file is reproducible.
  emit_metadata(os, first, kPidModeledFabrics, 0, "modeled fabrics (ts = array cycles)",
                "process_name");
  for (std::size_t f = 0; f < report.fabric_labels.size(); ++f)
    emit_metadata(os, first, kPidModeledFabrics, static_cast<int>(f),
                  report.fabric_labels[f], "thread_name");
  emit_metadata(os, first, kPidModeledStreams, 0, "modeled streams (ts = array cycles)",
                "process_name");
  for (const StreamSummary& s : report.streams)
    emit_metadata(os, first, kPidModeledStreams, s.stream_id, s.name, "thread_name");
  if (opts.include_host_tracks) {
    emit_metadata(os, first, kPidHostWorkers, 0, "host workers (wall time)", "process_name");
    // worker_busy_ms has one entry per host worker of the run.
    for (std::size_t w = 0; w < report.worker_busy_ms.size(); ++w)
      emit_metadata(os, first, kPidHostWorkers, static_cast<int>(w),
                    "worker " + std::to_string(w), "thread_name");
  }

  for (const Span& s : report.spans) {
    const int pid = s.track == TrackKind::kFabric ? kPidModeledFabrics : kPidModeledStreams;
    emit_span(os, first, s, pid, s.track_id, static_cast<double>(s.cycle_start),
              static_cast<double>(s.cycle_end - s.cycle_start));
    // Host tracks carry only the whole-job occupancy, keyed by the worker
    // that ran the job: jobs on one worker are sequential, so the track
    // stays overlap-free, while the fetch/switch sub-phases have no
    // separately measured host interval.
    if (opts.include_host_tracks && s.kind == SpanKind::kDispatch && s.worker >= 0)
      emit_span(os, first, s, kPidHostWorkers, s.worker,
                static_cast<double>(s.host_start_ns) / 1000.0,
                static_cast<double>(s.host_end_ns - s.host_start_ns) / 1000.0);
  }

  os << (first ? "" : "\n  ") << "],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {"
     << "\n    \"schema_version\": " << kTelemetrySchemaVersion
     << ",\n    \"modeled_time_unit\": \"array cycles\""
     << ",\n    \"policy\": \"" << json_escape(report.policy) << "\""
     << ",\n    \"mode\": \"" << json_escape(report.mode) << "\""
     << ",\n    \"fabrics\": " << report.fabrics
     << ",\n    \"streams\": " << report.streams.size()
     << ",\n    \"makespan_cycles\": " << report.sim_makespan_cycles << "\n  }\n}\n";
  return os.str();
}

bool write_chrome_trace(const std::string& path, const RunReport& report,
                        const TraceExportOptions& opts) {
  return write_file(path, chrome_trace_json(report, opts));
}

std::string metrics_json(const MetricsRegistry& registry, double host_wall_seconds) {
  std::ostringstream os;
  os << "{\n  \"schema_version\": " << kTelemetrySchemaVersion
     << ",\n  \"host_wall_seconds\": " << json_number(host_wall_seconds)
     << ",\n  \"epochs_dropped\": " << registry.epochs_dropped();

  os << ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : registry.counters()) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "}";

  os << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : registry.gauges()) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << json_number(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "}";

  os << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : registry.histograms()) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": {"
       << "\"count\": " << h.count() << ", \"sum\": " << json_number(h.sum())
       << ", \"min\": " << json_number(h.min()) << ", \"max\": " << json_number(h.max())
       << ", \"p50\": " << json_number(h.percentile(50.0))
       << ", \"p95\": " << json_number(h.percentile(95.0))
       << ", \"p99\": " << json_number(h.percentile(99.0))
       // Top-bucket saturation accounting: samples past the last bound
       // and the smallest of them (the clamp percentile interpolation
       // uses). Lets a validator judge whether percentiles cut through
       // the unbounded bucket — and how trustworthy they are there.
       << ", \"overflow\": {\"count\": " << h.overflow_count()
       << ", \"min\": " << json_number(h.overflow_min()) << "}"
       << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < h.counts().size(); ++b) {
      if (h.counts()[b] == 0) continue;  // sparse: most of the 56 buckets are empty
      os << (first_bucket ? "" : ", ") << "{\"le\": "
         << (b < h.bounds().size() ? json_number(h.bounds()[b]) : std::string("null"))
         << ", \"count\": " << h.counts()[b] << "}";
      first_bucket = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}";

  os << ",\n  \"timelines\": {";
  first = true;
  for (const auto& [name, samples] : registry.timelines()) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": [";
    for (std::size_t i = 0; i < samples.size(); ++i)
      os << (i == 0 ? "" : ", ") << json_number(samples[i]);
    os << "]";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

bool write_metrics_json(const std::string& path, const MetricsRegistry& registry,
                        double host_wall_seconds) {
  return write_file(path, metrics_json(registry, host_wall_seconds));
}

}  // namespace dsra::runtime::telemetry

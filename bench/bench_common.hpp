// Helpers shared by the acceptance benches (no Google Benchmark needed).
#pragma once

#include <time.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "runtime/job.hpp"
#include "runtime/telemetry/export.hpp"
#include "runtime/telemetry/metrics.hpp"

namespace dsra::bench_common {

/// Append "name | v0 | v1 | ..." to @p table, formatting every value
/// with format_i64 — the comparison-row shape each scheduler bench's
/// N-run metric table repeats.
template <typename... Values>
inline void add_u64_row(ReportTable& table, const std::string& name, Values... values) {
  std::vector<std::string> row{name};
  (row.push_back(format_i64(static_cast<std::int64_t>(values))), ...);
  table.add_row(std::move(row));
}

/// Seconds of CPU time @p clock has counted so far: CLOCK_THREAD_CPUTIME_ID
/// for the calling thread, CLOCK_PROCESS_CPUTIME_ID for every thread of
/// the process. Unlike wall time it leaves out the spells the host runs
/// other threads or tenants instead; the speed of the work itself still
/// varies with the host's load.
inline double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Standard schema-v2 bench epilogue: write BENCH_<name>.json and map
/// the acceptance-bar verdicts onto the process exit code.
inline int finish(const BenchJson& json) {
  json.write();
  return json.all_passed() ? 0 : 1;
}

/// Stamp @p json's reproducibility coordinates: the workload RNG seed
/// and an fnv1a digest of @p config_text — a human-readable rendering of
/// every knob that shapes the run (stream counts, frame sizes, fabric
/// configs...). Two runs with equal seed + digest must measure the same
/// modeled workload; tools/validate_trace.py requires both fields.
inline void stamp_reproducibility(BenchJson& json, std::uint64_t rng_seed,
                                  const std::string& config_text) {
  json.reproducibility(rng_seed, fnv1a_hex(config_text));
}

/// Write METRICS_<bench>.json and print the conventional artifacts line
/// CI greps for; @p extra_artifacts lists files the bench wrote itself
/// (e.g. a Perfetto trace) so the line names every artifact once.
inline void write_metrics_artifact(const std::string& bench,
                                   const runtime::telemetry::MetricsRegistry& metrics,
                                   double wall_seconds = 0.0,
                                   const std::vector<std::string>& extra_artifacts = {}) {
  const std::string path = "METRICS_" + bench + ".json";
  runtime::telemetry::write_metrics_json(path, metrics, wall_seconds);
  std::string line = "artifacts: ";
  for (const std::string& artifact : extra_artifacts) line += artifact + ", ";
  line += path;
  std::printf("%s\n", line.c_str());
}

/// Write an already-serialized artifact (e.g. a health dump) next to the
/// bench JSON and print the artifacts line CI greps for.
inline bool write_text_artifact(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (ok) std::printf("artifacts: %s\n", path.c_str());
  return ok;
}

/// Encoded outputs of two runs over the same workload must match bit for
/// bit: scheduling, pool shape and reconfiguration strategy may only
/// change where and when a job runs — never what the fabric computes.
/// Returns the number of mismatching streams/frames.
inline int count_output_mismatches(const std::vector<runtime::StreamJob>& a,
                                   const std::vector<runtime::StreamJob>& b) {
  int mismatches = 0;
  if (a.size() != b.size()) return 1;
  for (std::size_t s = 0; s < a.size(); ++s) {
    const runtime::StreamJob& ja = a[s];
    const runtime::StreamJob& jb = b[s];
    if (ja.records.size() != jb.records.size() ||
        ja.recon_state.data() != jb.recon_state.data()) {
      ++mismatches;
      continue;
    }
    for (std::size_t k = 0; k < ja.records.size(); ++k) {
      const runtime::FrameRecord& ra = ja.records[k];
      const runtime::FrameRecord& rb = jb.records[k];
      if (ra.frame_index != rb.frame_index || ra.impl != rb.impl ||
          ra.stats.bits != rb.stats.bits || ra.stats.psnr_db != rb.stats.psnr_db)
        ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace dsra::bench_common

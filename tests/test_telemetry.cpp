// Runtime telemetry: span tracing determinism, fabric-track and
// host-worker-track well-formedness, exact stall attribution,
// zero-cost-off bit-exactness, histogram percentiles against the shared
// sample-percentile code path, per-epoch timeline sanity, and pins of the
// modeled content every observation artifact exports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/report.hpp"
#include "plan_workloads.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/telemetry/export.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

namespace dsra::runtime {
namespace {

using plan_workloads::library;

std::vector<StreamJob> mixed_workload(int streams, int frames, int size) {
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0},  // -> cordic1
      {0.5, 0.9},  // -> cordic2
      {0.9, 0.3},  // -> mixed_rom
      {0.1, 0.9},  // -> scc_full
  };
  std::vector<StreamJob> jobs;
  jobs.reserve(static_cast<std::size_t>(streams));
  for (int k = 0; k < streams; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = size;
    cfg.height = size;
    cfg.frame_budget = frames;
    cfg.condition = conditions[k % 4];
    cfg.codec.me_range = 4;
    cfg.seed = 4200 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

SchedulerConfig traced_config(DispatchMode mode, telemetry::TraceRecorder* rec,
                              int fabrics = 2) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(fabrics, FabricConfig{});
  cfg.queue.mode = mode;
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.trace = rec;
  return cfg;
}

RunReport traced_run(DispatchMode mode, telemetry::MetricsRegistry* metrics = nullptr,
                     int fabrics = 2) {
  telemetry::TraceRecorder rec;
  auto jobs = mixed_workload(4, 4, 16);
  MultiStreamScheduler scheduler(library(), traced_config(mode, &rec, fabrics));
  RunReport report = scheduler.run(jobs);
  if (metrics != nullptr) telemetry::fill_metrics(report, jobs, *metrics);
  return report;
}

TEST(Telemetry, ModeledCycleTraceIsByteDeterministic) {
  // Two identical runs on a multi-fabric pool must export byte-identical
  // modeled-cycle traces: dispatch is planned in modeled time, so the
  // job->fabric assignment and every cycle count are fixed by the inputs.
  // Host tracks are excluded — wall timestamps legitimately differ
  // between runs.
  const RunReport a = traced_run(DispatchMode::kStagePipeline, nullptr, /*fabrics=*/3);
  const RunReport b = traced_run(DispatchMode::kStagePipeline, nullptr, /*fabrics=*/3);
  telemetry::TraceExportOptions no_host;
  no_host.include_host_tracks = false;
  ASSERT_FALSE(a.spans.empty());
  EXPECT_EQ(chrome_trace_json(a, no_host), chrome_trace_json(b, no_host));
}

TEST(Telemetry, FabricTrackSpansNestWithoutOverlap) {
  const RunReport report = traced_run(DispatchMode::kStagePipeline);
  ASSERT_FALSE(report.spans.empty());
  // Spans are exported sorted by (track, id, cycle_start); on one fabric
  // track each span must end before the next starts — the silicon does
  // one thing at a time.
  const telemetry::Span* prev = nullptr;
  for (const telemetry::Span& s : report.spans) {
    EXPECT_LE(s.cycle_start, s.cycle_end);
    EXPECT_LE(s.cycle_end, report.sim_makespan_cycles);
    if (s.track != telemetry::TrackKind::kFabric) continue;
    if (prev != nullptr && prev->track_id == s.track_id) {
      EXPECT_LE(prev->cycle_end, s.cycle_start)
          << "overlap on fabric track " << s.track_id;
    }
    prev = &s;
  }
}

TEST(Telemetry, HostWorkerSpansNeverOverlap) {
  // Host time is keyed by the worker that ran each job, not by its
  // planned fabric: one worker runs one job at a time, whatever fabric
  // the job was planned on. Workers are the fabric slots plus the thread
  // that called run().
  const RunReport report = traced_run(DispatchMode::kStagePipeline, nullptr, /*fabrics=*/3);
  ASSERT_EQ(report.worker_busy_ms.size(), 4u);
  std::vector<std::vector<const telemetry::Span*>> by_worker(report.worker_busy_ms.size());
  for (const telemetry::Span& s : report.spans) {
    if (s.kind != telemetry::SpanKind::kDispatch) {
      EXPECT_EQ(s.worker, -1);
      continue;
    }
    ASSERT_GE(s.worker, 0);
    ASSERT_LT(static_cast<std::size_t>(s.worker), by_worker.size());
    EXPECT_LE(s.host_start_ns, s.host_end_ns);
    by_worker[static_cast<std::size_t>(s.worker)].push_back(&s);
  }
  for (std::size_t w = 0; w < by_worker.size(); ++w) {
    std::vector<const telemetry::Span*>& jobs = by_worker[w];
    std::sort(jobs.begin(), jobs.end(), [](const auto* a, const auto* b) {
      return a->host_start_ns < b->host_start_ns;
    });
    for (std::size_t j = 1; j < jobs.size(); ++j)
      EXPECT_LE(jobs[j - 1]->host_end_ns, jobs[j]->host_start_ns) << "worker " << w;
  }
  // The export names one host track per worker.
  const std::string json = telemetry::chrome_trace_json(report);
  for (std::size_t w = 0; w < by_worker.size(); ++w)
    EXPECT_NE(json.find("\"worker " + std::to_string(w) + "\""), std::string::npos);
}

TEST(Telemetry, AttributionComponentsSumExactlyToEndToEnd) {
  for (const DispatchMode mode :
       {DispatchMode::kMonolithicFrames, DispatchMode::kStagePipeline}) {
    const RunReport report = traced_run(mode);
    ASSERT_EQ(report.attribution.size(), report.streams.size());
    for (const telemetry::StreamAttribution& a : report.attribution) {
      EXPECT_EQ(a.components_sum(), a.end_to_end_cycles)
          << "stream " << a.stream_id << " under " << report.mode;
      EXPECT_GT(a.compute_cycles, 0u) << "stream " << a.stream_id;
      EXPECT_LE(a.end_to_end_cycles, report.sim_makespan_cycles);
    }
  }
}

TEST(Telemetry, TracingIsZeroCostOffAndBitExactOn) {
  // Modeled results must be bit-identical with tracing off and on, on a
  // multi-fabric pool: recording only observes.
  auto plain_jobs = mixed_workload(4, 4, 16);
  SchedulerConfig plain;
  plain.fabric_configs.assign(2, FabricConfig{});
  plain.queue.mode = DispatchMode::kStagePipeline;
  plain.queue.policy = SchedulingPolicy::kAffinityBatched;
  const RunReport off = MultiStreamScheduler(library(), plain).run(plain_jobs);
  EXPECT_TRUE(off.spans.empty());
  EXPECT_TRUE(off.attribution.empty());

  telemetry::TraceRecorder rec;
  auto traced_jobs = mixed_workload(4, 4, 16);
  MultiStreamScheduler scheduler(
      library(), traced_config(DispatchMode::kStagePipeline, &rec, /*fabrics=*/2));
  const RunReport on = scheduler.run(traced_jobs);

  EXPECT_EQ(off.sim_makespan_cycles, on.sim_makespan_cycles);
  EXPECT_EQ(off.total_reconfig_cycles, on.total_reconfig_cycles);
  ASSERT_EQ(plain_jobs.size(), traced_jobs.size());
  for (std::size_t s = 0; s < plain_jobs.size(); ++s) {
    ASSERT_EQ(plain_jobs[s].records.size(), traced_jobs[s].records.size());
    for (std::size_t f = 0; f < plain_jobs[s].records.size(); ++f) {
      EXPECT_EQ(plain_jobs[s].records[f].stats.bits, traced_jobs[s].records[f].stats.bits);
      EXPECT_EQ(plain_jobs[s].records[f].stats.psnr_db,
                traced_jobs[s].records[f].stats.psnr_db);
    }
  }
}

TEST(Telemetry, MetricsOnlyRequestStillYieldsSpansAndHistograms) {
  telemetry::MetricsRegistry metrics;
  const RunReport report = traced_run(DispatchMode::kStagePipeline, &metrics);
  EXPECT_FALSE(report.spans.empty());
  EXPECT_GT(metrics.counters().at("frames"), 0u);
  EXPECT_GT(metrics.histograms().at("stage_compute_cycles").count(), 0u);
  EXPECT_GT(metrics.histograms().at("queue_wait_cycles").count(), 0u);
  // Epoch timelines: one utilization track per fabric, each sample a
  // fraction, plus the queue-depth track.
  const auto& timelines = metrics.timelines();
  ASSERT_EQ(timelines.count("queue_depth"), 1u);
  for (int f = 0; f < report.fabrics; ++f) {
    const auto it = timelines.find("fabric" + std::to_string(f) + "_utilization");
    ASSERT_NE(it, timelines.end());
    EXPECT_EQ(it->second.size(), 32u);
    for (const double u : it->second) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.0);
    }
  }
  for (const double d : timelines.at("queue_depth")) EXPECT_GE(d, 0.0);
  // The metrics export must be valid JSON-shaped text with the schema
  // stamp; full validation is tools/validate_trace.py's job in CI.
  const std::string json = telemetry::metrics_json(metrics, report.wall_seconds);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_cycles\""), std::string::npos);
}

TEST(Telemetry, HistogramPercentilesShareTheSamplePercentileContract) {
  // With one sample per bucket the interpolation collapses to the bucket
  // bound, so the histogram must agree exactly with the sample-based
  // nearest-rank percentile (the shared percentile_rank code path).
  telemetry::FixedBucketHistogram hist({1.0, 2.0, 3.0, 4.0, 5.0});
  const std::vector<double> samples = {1.0, 2.0, 3.0, 4.0, 5.0};
  for (const double v : samples) hist.record(v);
  for (const double pct : {0.0, 25.0, 50.0, 95.0, 100.0})
    EXPECT_DOUBLE_EQ(hist.percentile(pct), percentile(samples, pct)) << "pct " << pct;
}

TEST(Telemetry, HistogramDegenerateCasesAreExact) {
  telemetry::FixedBucketHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);

  telemetry::FixedBucketHistogram single;
  single.record(7.5);
  for (const double pct : {0.0, 50.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(single.percentile(pct), 7.5) << "pct " << pct;

  // Non-finite pct collapses to the conservative end (the max), and
  // non-finite samples are dropped instead of poisoning min/max/sum.
  telemetry::FixedBucketHistogram h;
  h.record(2.0);
  h.record(8.0);
  EXPECT_DOUBLE_EQ(h.percentile(std::numeric_limits<double>::quiet_NaN()), 8.0);
  h.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
}

TEST(Telemetry, OverflowBucketPercentileClampsToObservedSamples) {
  // Regression: a percentile resolving in the unbounded top bucket used
  // to interpolate over [last bound, max]. With the overflow samples
  // clustered far above the last bound, that *understated* the tail —
  // the p99 a bench would gate on read lower than any sample actually
  // past the bound. The overflow bucket must clamp to the smallest
  // sample observed in it.
  telemetry::FixedBucketHistogram hist(
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0});
  for (int i = 0; i < 100; ++i) hist.record(4.0);
  for (int i = 0; i < 100; ++i) hist.record(1e6);  // clustered far past 1024

  EXPECT_EQ(hist.overflow_count(), 100u);
  EXPECT_DOUBLE_EQ(hist.overflow_min(), 1e6);
  // Rank 198 of 200 lands in the overflow bucket; every sample there is
  // 1e6, so the estimate must be exactly 1e6 — not a value interpolated
  // down toward the 1024 bound.
  EXPECT_DOUBLE_EQ(hist.percentile(99.0), 1e6);
  EXPECT_GE(hist.percentile(95.0), 1e6);

  // No overflow -> no overflow accounting.
  telemetry::FixedBucketHistogram bounded({10.0, 20.0});
  bounded.record(5.0);
  EXPECT_EQ(bounded.overflow_count(), 0u);
  EXPECT_DOUBLE_EQ(bounded.overflow_min(), 0.0);

  // The widened default bounds keep overload-scale cycle counts out of
  // the overflow bucket in the first place.
  EXPECT_EQ(telemetry::FixedBucketHistogram::default_bounds().size(), 56u);
}

TEST(Telemetry, MetricsJsonCarriesOverflowAccounting) {
  telemetry::MetricsRegistry registry;
  auto& h = registry.histogram("lat", {1.0, 2.0});
  h.record(1.0);
  h.record(50.0);
  const std::string json = telemetry::metrics_json(registry, 0.0);
  EXPECT_NE(json.find("\"overflow\": {\"count\": 1, \"min\": 50"), std::string::npos);
}

TEST(Telemetry, ChromeTraceExportCarriesTracksAndMetadata) {
  const RunReport report = traced_run(DispatchMode::kStagePipeline);
  const std::string json = telemetry::chrome_trace_json(report);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("modeled fabrics"), std::string::npos);
  EXPECT_NE(json.find("modeled streams"), std::string::npos);
  EXPECT_NE(json.find("host workers"), std::string::npos);
  EXPECT_NE(json.find("\"stage_compute\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  for (const std::string& label : report.fabric_labels)
    EXPECT_NE(json.find(label), std::string::npos);
  // Host tracks off removes the host worker process but keeps the
  // modeled tracks.
  telemetry::TraceExportOptions no_host;
  no_host.include_host_tracks = false;
  const std::string modeled_only = telemetry::chrome_trace_json(report, no_host);
  EXPECT_EQ(modeled_only.find("host workers"), std::string::npos);
  EXPECT_NE(modeled_only.find("modeled fabrics"), std::string::npos);
}

// ---- observation artifact pins --------------------------------------------

/// What a traced run with metrics exports, reduced to its modeled content:
/// the trace JSON without host tracks, every JobTrace row's modeled fields
/// and the metrics JSON without host-time values.
struct ArtifactDigests {
  std::string trace;
  std::string rows;
  std::string metrics;
};

std::string rows_digest(std::vector<telemetry::JobTrace> rows) {
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return std::tuple(a.stream_id, a.frame_index, a.stage) <
           std::tuple(b.stream_id, b.frame_index, b.stage);
  });
  std::string text;
  for (const telemetry::JobTrace& t : rows) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%d,%d,%d,%d,%llu,%llu,%d%d%d,", t.stream_id, t.frame_index,
                  static_cast<int>(t.stage), t.fabric_id,
                  static_cast<unsigned long long>(t.fetch_cycles),
                  static_cast<unsigned long long>(t.switch_cycles), t.cache_hit ? 1 : 0,
                  t.switched ? 1 : 0, t.partial_switch ? 1 : 0);
    text += buf + t.context + ";";
  }
  return fnv1a_hex(text);
}

/// The metrics JSON with every line that carries host time dropped.
std::string metrics_digest(const telemetry::MetricsRegistry& metrics) {
  std::istringstream json(telemetry::metrics_json(metrics, 0.0));
  std::string text;
  for (std::string line; std::getline(json, line);)
    if (line.find("wall_seconds") == std::string::npos &&
        line.find("frames_per_second") == std::string::npos &&
        line.find("job_host_ms") == std::string::npos)
      text += line + "\n";
  return fnv1a_hex(text);
}

ArtifactDigests observe(const KernelLibrary& lib, SchedulerConfig cfg,
                        std::vector<StreamJob> jobs) {
  telemetry::TraceRecorder rec;
  cfg.trace = &rec;
  const RunReport report = MultiStreamScheduler(lib, cfg).run(jobs);
  telemetry::MetricsRegistry metrics;
  telemetry::fill_metrics(report, jobs, metrics);
  telemetry::TraceExportOptions no_host;
  no_host.include_host_tracks = false;
  return {fnv1a_hex(telemetry::chrome_trace_json(report, no_host)), rows_digest(rec.merged()),
          metrics_digest(metrics)};
}

void expect_digests(const ArtifactDigests& got, const ArtifactDigests& want,
                    const std::string& label) {
  EXPECT_EQ(got.trace, want.trace) << label;
  EXPECT_EQ(got.rows, want.rows) << label;
  EXPECT_EQ(got.metrics, want.metrics) << label;
}

TEST(TelemetryPin, PlanPinArtifactsInBothModes) {
  // Recorded before the trace rows, spans and metrics were derived from
  // the plan's one record per job; the observed content must not move.
  const std::pair<DispatchMode, ArtifactDigests> cases[] = {
      {DispatchMode::kMonolithicFrames,
       {"7ac7b8bcb30887d0", "a26a8dd1b8260d33", "37f6fc5bed877cbe"}},
      {DispatchMode::kStagePipeline,
       {"d632352bbab7f9f2", "742ccd38f96133ad", "46896bc1b6b3ee86"}},
  };
  for (const auto& [mode, want] : cases) {
    const ArtifactDigests got =
        observe(library(),
                plan_workloads::one_fabric_config(mode, SchedulingPolicy::kAffinityBatched),
                plan_workloads::pin_workload());
    expect_digests(got, want, to_string(mode));
  }
}

TEST(TelemetryPin, TenancyAdmissionArtifacts) {
  const ArtifactDigests got = observe(plan_workloads::two_geometry_library(),
                                      plan_workloads::tenancy_admission_config(),
                                      plan_workloads::tenancy_admission_workload());
  expect_digests(got, {"453c082f8f0dcd7b", "b9d9265322a16ae3", "2a126b3388870e45"},
                 "tenancy + admission");
}

}  // namespace
}  // namespace dsra::runtime

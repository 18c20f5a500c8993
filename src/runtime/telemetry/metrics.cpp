#include "runtime/telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/job.hpp"
#include "runtime/stats.hpp"

namespace dsra::runtime::telemetry {

std::vector<double> FixedBucketHistogram::default_bounds() {
  // 56 power-of-two buckets reach ~7.2e16 — overload-scale latencies
  // (queue waits at many times capacity) stay inside a bounded bucket
  // instead of piling into the overflow bucket and blurring the tail.
  std::vector<double> bounds;
  bounds.reserve(56);
  double bound = 1.0;
  for (int k = 0; k < 56; ++k) {
    bounds.push_back(bound);
    bound *= 2.0;
  }
  return bounds;
}

FixedBucketHistogram::FixedBucketHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {}

void FixedBucketHistogram::record(double value) {
  if (!std::isfinite(value)) return;  // a NaN sample would poison min/max/sum
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  if (it == bounds_.end() &&
      (counts_.back() == 0 || value < overflow_min_))
    overflow_min_ = value;
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  ++count_;
}

double FixedBucketHistogram::percentile(double pct) const {
  // Shared degenerate-case contract with runtime/stats::percentile: no
  // samples -> 0, one sample -> that sample (interpolating inside a
  // bucket with a single occupant would fabricate a value no sample had).
  if (count_ == 0) return 0.0;
  if (count_ == 1) return min_;
  const std::uint64_t rank = percentile_rank(count_, pct);

  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    if (cumulative + counts_[b] < rank) {
      cumulative += counts_[b];
      continue;
    }
    // Linear interpolation inside the selected bucket, with the bucket
    // edges clamped to the observed range so the overflow bucket (no
    // upper bound) and sparse edge buckets stay finite. The overflow
    // bucket's lower edge is the smallest sample that actually landed in
    // it, not the last bound: interpolating from the bound would pull a
    // saturated tail toward it and silently understate p99 when the
    // overflow samples cluster far above the configured range.
    const bool is_overflow = b == bounds_.size();
    const double bucket_lower =
        is_overflow ? overflow_min_ : (b == 0 ? min_ : bounds_[b - 1]);
    const double lower = std::max(bucket_lower, min_);
    const double upper = std::min(b < bounds_.size() ? bounds_[b] : max_, max_);
    const double fraction =
        static_cast<double>(rank - cumulative) / static_cast<double>(counts_[b]);
    const double value = lower + fraction * (upper - lower);
    return std::clamp(value, min_, max_);
  }
  return max_;  // rank beyond the last occupied bucket (pct == 100)
}

FixedBucketHistogram& MetricsRegistry::histogram(const std::string& name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, FixedBucketHistogram()).first->second;
}

FixedBucketHistogram& MetricsRegistry::histogram(const std::string& name,
                                                 std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, FixedBucketHistogram(std::move(bounds))).first->second;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  timelines_.clear();
  epochs_dropped_ = 0;  // the cap is configuration, not run state — kept
}

namespace {

void sample_epoch_timelines(const std::vector<Span>& spans, int fabric_count,
                            std::uint64_t makespan_cycles, int epochs,
                            MetricsRegistry& registry) {
  if (epochs <= 0 || makespan_cycles == 0) return;
  const double epoch_len =
      static_cast<double>(makespan_cycles) / static_cast<double>(epochs);

  const auto overlap = [&](const Span& s, int epoch) -> double {
    const double lo = epoch_len * epoch;
    const double hi = epoch_len * (epoch + 1);
    const double start = std::max(static_cast<double>(s.cycle_start), lo);
    const double end = std::min(static_cast<double>(s.cycle_end), hi);
    return std::max(0.0, end - start);
  };
  const auto epoch_of = [&](std::uint64_t cycle) {
    const int e = static_cast<int>(static_cast<double>(cycle) / epoch_len);
    return std::clamp(e, 0, epochs - 1);
  };

  std::vector<std::vector<double>> busy(static_cast<std::size_t>(std::max(0, fabric_count)),
                                        std::vector<double>(static_cast<std::size_t>(epochs)));
  std::vector<double> depth(static_cast<std::size_t>(epochs), 0.0);
  for (const Span& s : spans) {
    if (s.cycle_end <= s.cycle_start) continue;
    const int first = epoch_of(s.cycle_start);
    const int last = epoch_of(s.cycle_end - 1);
    if (s.track == TrackKind::kFabric) {
      if (s.fabric_id < 0 || s.fabric_id >= fabric_count) continue;
      for (int e = first; e <= last; ++e)
        busy[static_cast<std::size_t>(s.fabric_id)][static_cast<std::size_t>(e)] +=
            overlap(s, e);
    } else if (s.kind == SpanKind::kQueueWait) {
      // Overlap-weighted: a job waiting through a whole epoch adds 1 to
      // that epoch's mean depth, a job waiting half of it adds 0.5.
      for (int e = first; e <= last; ++e)
        depth[static_cast<std::size_t>(e)] += overlap(s, e) / epoch_len;
    }
  }

  for (int f = 0; f < fabric_count; ++f) {
    auto& samples = busy[static_cast<std::size_t>(f)];
    for (double& v : samples) v = std::min(1.0, v / epoch_len);
    registry.timeline("fabric" + std::to_string(f) + "_utilization", std::move(samples));
  }
  registry.timeline("queue_depth", std::move(depth));
}

}  // namespace

void fill_metrics(const RunReport& report, const std::vector<StreamJob>& streams,
                  MetricsRegistry& m) {
  m.count("dispatches", report.dispatches);
  m.count("dispatch_batches", report.dispatch_batches);
  m.count("queue_steals", report.queue_steals);
  m.gauge("queue_shards", static_cast<double>(report.queue_shards));
  m.count("frames", report.total_frames);
  m.count("bitstream_switches", static_cast<std::uint64_t>(report.total_switches));
  m.count("partial_reloads", report.partial_reloads);
  m.count("full_reloads", report.full_reloads);
  m.count("cache_hits", report.cache.hits);
  m.count("cache_misses", report.cache.misses);
  m.count("cache_evictions", report.cache.evictions);
  m.count("cache_delta_fetches", report.cache.delta_fetches);
  m.count("placement_rejections", report.placement_rejections);
  m.count("port_contention_cycles", report.port_contention_cycles);
  std::uint64_t region_deltas = 0, region_blits = 0;
  for (const PartitionSummary& p : report.partitions) {
    region_deltas += p.region_deltas;
    region_blits += p.region_blits;
  }
  m.count("region_deltas_applied", region_deltas);
  m.count("region_blits", region_blits);
  m.gauge("physical_fabrics", static_cast<double>(report.physical_fabrics));
  m.count("condition_switches", report.condition_switches);
  m.count("stale_frames", report.stale_frames);
  const AdmissionReport& adm = report.admission;
  if (adm.enabled) {
    m.count("admission_arrived", adm.arrived);
    m.count("admission_admitted", adm.admitted);
    m.count("admission_admitted_clean", adm.admitted_clean);
    m.count("admission_qp_bumps", adm.qp_bumps);
    m.count("admission_resolution_drops", adm.resolution_drops);
    m.count("admission_impl_swaps", adm.impl_swaps);
    m.count("admission_rejected", adm.rejected);
    m.gauge("admission_pool_pressure", adm.pool_pressure);
  }
  m.count("sla_violations", report.sla_violations);
  m.count("goodput_frames", report.goodput_frames);
  if (report.health_anomalies) m.count("health_anomalies_total", *report.health_anomalies);
  for (const StreamJob& s : streams)
    for (const FrameRecord& r : s.records)
      m.histogram("frame_latency_cycles").record(static_cast<double>(r.latency_cycles));
  m.gauge("sim_makespan_cycles", static_cast<double>(report.sim_makespan_cycles));
  m.gauge("sim_utilization", report.sim_utilization);
  m.gauge("wall_seconds", report.wall_seconds);
  m.gauge("frames_per_second", report.frames_per_second);
  for (const Span& s : report.spans) {
    const auto cycles = static_cast<double>(s.cycle_end - s.cycle_start);
    switch (s.kind) {
      case SpanKind::kQueueWait:
        m.histogram("queue_wait_cycles").record(cycles);
        break;
      case SpanKind::kCacheFetch:
        m.histogram("cache_fetch_cycles").record(cycles);
        break;
      case SpanKind::kReconfigFull:
      case SpanKind::kReconfigDelta:
        m.histogram("reconfig_cycles").record(cycles);
        break;
      case SpanKind::kStageCompute:
        m.histogram("stage_compute_cycles").record(cycles);
        break;
      case SpanKind::kDispatch:
        m.histogram("job_host_ms")
            .record(static_cast<double>(s.host_end_ns - s.host_start_ns) / 1e6);
        break;
    }
  }
  sample_epoch_timelines(report.spans, report.fabrics, report.sim_makespan_cycles,
                         static_cast<int>(m.timeline_epoch_cap()), m);
}

}  // namespace dsra::runtime::telemetry

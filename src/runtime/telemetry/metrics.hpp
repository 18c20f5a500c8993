// Metrics registry: named counters, gauges, fixed-bucket latency
// histograms and per-epoch timelines.
//
// The histograms answer p50/p95/p99 without storing samples: values land
// in fixed exponential buckets and percentiles interpolate within the
// selected bucket, sharing the nearest-rank selection code path with the
// per-stream latency percentiles in runtime/stats (one guarded
// implementation of the degenerate cases — zero or one sample — instead
// of two that could drift). Epoch timelines give the time-resolved view
// end-of-run aggregates cannot: queue depth and per-fabric utilization
// sampled over fixed windows of the modeled-cycle makespan.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/telemetry/trace.hpp"

namespace dsra::runtime {
struct RunReport;  // stats.hpp
struct StreamJob;  // job.hpp
}  // namespace dsra::runtime

namespace dsra::runtime::telemetry {

/// Histogram over fixed bucket upper bounds (ascending; an implicit
/// overflow bucket catches everything above the last bound).
class FixedBucketHistogram {
 public:
  /// @p upper_bounds must be ascending; an empty list is one catch-all
  /// bucket.
  explicit FixedBucketHistogram(std::vector<double> upper_bounds = default_bounds());

  /// Power-of-two bounds 1, 2, 4, ... — 56 buckets (~7.2e16), wide
  /// enough that overload-scale cycle counts land in a bounded bucket
  /// instead of saturating the top one.
  [[nodiscard]] static std::vector<double> default_bounds();

  void record(double value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// Samples past the last bucket bound. A non-zero overflow means the
  /// bounds were too narrow for the workload; percentiles that resolve
  /// inside the overflow bucket are clamped to the observed overflow
  /// range (not interpolated from the last bound), and exporters surface
  /// this count so validators can flag distorted tails.
  [[nodiscard]] std::uint64_t overflow_count() const { return counts_.back(); }

  /// Smallest sample that landed in the overflow bucket (0 when none
  /// did) — the tight lower edge overflow-bucket percentiles clamp to.
  [[nodiscard]] double overflow_min() const {
    return overflow_count() > 0 ? overflow_min_ : 0.0;
  }

  /// Estimated percentile (pct in [0, 100]): nearest-rank bucket
  /// selection (the runtime/stats percentile_rank code path) with linear
  /// interpolation inside the bucket. Degenerate cases are exact, not
  /// interpolated: 0 recorded values -> 0.0, a single value -> that
  /// value; the result is always clamped into [min, max].
  [[nodiscard]] double percentile(double pct) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double overflow_min_ = 0.0;  ///< smallest sample past the last bound
};

/// Named metrics of one run. Not thread-safe: fill_metrics() fills it
/// from a finished run's report.
class MetricsRegistry {
 public:
  void count(const std::string& name, std::uint64_t delta = 1) { counters_[name] += delta; }
  void gauge(const std::string& name, double value) { gauges_[name] = value; }

  /// The named histogram, created with @p bounds (or the default
  /// power-of-two bounds) on first use.
  FixedBucketHistogram& histogram(const std::string& name);
  FixedBucketHistogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Replace the named per-epoch timeline. Samples beyond the epoch cap
  /// are truncated — and counted in epochs_dropped(), so the loss is
  /// visible in the export instead of silent.
  void timeline(const std::string& name, std::vector<double> samples) {
    if (samples.size() > timeline_epoch_cap_) {
      epochs_dropped_ +=
          static_cast<std::uint64_t>(samples.size() - timeline_epoch_cap_);
      samples.resize(timeline_epoch_cap_);
    }
    timelines_[name] = std::move(samples);
  }

  /// Epochs a timeline may hold (default 32); fill_metrics() samples its
  /// timelines at this many epochs. Raise it for long serve_streams
  /// sessions that want the tail resolved finer.
  void set_timeline_epoch_cap(std::size_t cap) {
    timeline_epoch_cap_ = cap > 0 ? cap : 1;
  }
  [[nodiscard]] std::size_t timeline_epoch_cap() const { return timeline_epoch_cap_; }

  /// Total timeline samples truncated by the cap across all timelines —
  /// exported as "epochs_dropped" so validators can flag lost tails.
  [[nodiscard]] std::uint64_t epochs_dropped() const { return epochs_dropped_; }

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const { return gauges_; }
  [[nodiscard]] const std::map<std::string, FixedBucketHistogram>& histograms() const {
    return histograms_;
  }
  [[nodiscard]] const std::map<std::string, std::vector<double>>& timelines() const {
    return timelines_;
  }

  void clear();

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, FixedBucketHistogram> histograms_;
  std::map<std::string, std::vector<double>> timelines_;
  std::size_t timeline_epoch_cap_ = 32;
  std::uint64_t epochs_dropped_ = 0;
};

/// Fill @p registry from a traced run: counters and gauges from
/// @p report (`health_anomalies_total` only when a monitor watched the
/// run), the frame-latency histogram from @p streams' records, and span
/// histograms plus per-epoch timelines from report.spans. The timelines
/// split the modeled makespan into the registry's timeline_epoch_cap()
/// epochs:
///
///  * "fabric<k>_utilization" — busy fraction of fabric k per epoch
///    (every fabric-track span counts as busy: fetch, reconfig, compute);
///  * "queue_depth" — mean number of concurrently waiting jobs per epoch
///    (overlap-weighted queue_wait spans).
void fill_metrics(const RunReport& report, const std::vector<StreamJob>& streams,
                  MetricsRegistry& registry);

}  // namespace dsra::runtime::telemetry

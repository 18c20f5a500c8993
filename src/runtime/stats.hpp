// Runtime statistics: per-stream latency percentiles, aggregate
// throughput, reconfiguration and context-cache accounting, and the
// common/report tables the bench and example print.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "runtime/admission.hpp"
#include "runtime/context_cache.hpp"
#include "runtime/geometry.hpp"
#include "runtime/job.hpp"
#include "runtime/partition.hpp"
#include "runtime/telemetry/attribution.hpp"
#include "runtime/telemetry/trace.hpp"

namespace dsra::runtime {

/// 1-based nearest rank of the @p pct percentile among @p n ordered
/// samples; 0 when there are no samples. The single selection rule both
/// the sample-based percentile below and the telemetry histograms'
/// bucket percentiles share, so the degenerate cases (zero samples, one
/// sample, out-of-range or non-finite pct) are guarded in exactly one
/// place: pct is clamped into [0, 100], a non-finite pct collapses to
/// 100 (the conservative end — report the worst sample, not a garbage
/// interpolation), and the rank never exceeds n.
[[nodiscard]] std::uint64_t percentile_rank(std::uint64_t n, double pct);

/// Nearest-rank percentile (pct in [0, 100]); 0 on an empty sample set,
/// the sample itself on a single-sample set, for every pct.
[[nodiscard]] double percentile(std::vector<double> samples, double pct);

struct LatencySummary {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};
[[nodiscard]] LatencySummary summarize_latencies(const std::vector<double>& samples_ms);

struct StreamSummary {
  int stream_id = 0;
  std::string name;
  std::string impl;        ///< context of the stream's first encoded frame
  std::string final_impl;  ///< context of the stream's last encoded frame
  std::string policy;      ///< condition policy ("static" without a trajectory)
  int frames = 0;
  LatencySummary latency;
  double mean_psnr_db = 0.0;
  double total_bits = 0.0;
  std::uint64_t array_cycles = 0;     ///< DCT + ME array cycles
  std::uint64_t reconfig_cycles = 0;  ///< charged while preparing this stream's frames
  std::uint64_t max_wait_dispatches = 0;
  /// Frames encoded under a different context than the previous frame —
  /// each forced the scheduler to re-bucket the stream mid-flight.
  int condition_switches = 0;
  /// Frames encoded under an impl the nominal selection policy would not
  /// have picked for the frame's actual condition (a frozen assignment
  /// gone stale). 0 for streams without a trajectory.
  int stale_frames = 0;
  /// Ladder rung admission admitted the stream at (kReject: shed, it
  /// encoded nothing; kNone also covers admission-disabled runs).
  DegradationRung admission_rung = DegradationRung::kNone;
  std::uint64_t deadline_cycles = 0;    ///< SLA (0 = unconstrained)
  std::uint64_t p99_budget_cycles = 0;  ///< SLA (0 = unconstrained)
  /// Admission's pilot prediction vs the sim replay's modeled outcome —
  /// completion of the last frame and the per-frame latency p99, both in
  /// modeled cycles (the SLA clock domain).
  std::uint64_t predicted_completion_cycles = 0;
  std::uint64_t completion_cycles = 0;
  std::uint64_t p99_latency_cycles = 0;
  /// The stream encoded its frames within every SLA bound it carries.
  /// False for shed streams; trivially true for completed best-effort.
  bool sla_met = false;
};
[[nodiscard]] StreamSummary summarize_stream(const StreamJob& job);

/// Reconfiguration and placement accounting of one array geometry's
/// fabrics within a heterogeneous pool.
struct GeometrySummary {
  ArrayGeometry geometry;
  int fabrics = 0;                       ///< pool fabrics of this geometry
  int switches = 0;                      ///< bitstream switches they performed
  std::uint64_t reconfig_cycles = 0;     ///< configuration-port cycles they paid
  /// Dispatch decisions in which a fabric of this geometry passed over a
  /// capability-eligible job because the job's context does not place on
  /// the geometry — how often feasibility steered routing.
  std::uint64_t placement_rejections = 0;
};

/// Occupancy and contention of one scheduler-visible slot (a partition
/// rectangle of a physical fabric, or a whole exclusive fabric).
struct PartitionSummary {
  int slot = 0;      ///< scheduler-visible slot id
  int physical = 0;  ///< physical fabric the slot lives on
  PartitionSpec partition;
  bool exclusive = true;             ///< the slot covers its whole fabric
  std::uint64_t busy_cycles = 0;     ///< modeled busy cycles (sim replay)
  double occupancy = 0.0;            ///< busy / makespan
  std::uint64_t port_wait_cycles = 0;  ///< stalled on the shared config port
  int switches = 0;                  ///< bitstream switches the slot performed
  std::uint64_t region_deltas = 0;   ///< partial switches applied as region deltas
  std::uint64_t region_blits = 0;    ///< full reloads blitted into the rectangle
};

struct RunReport {
  std::string policy;
  std::string mode;  ///< dispatch mode (monolithic-frames / stage-pipeline)
  int fabrics = 0;   ///< scheduler-visible slots (= partitions when tenanted)
  /// Physical fabrics underneath the slots (= fabrics when nothing is
  /// partitioned).
  int physical_fabrics = 0;
  std::vector<StreamSummary> streams;
  double wall_seconds = 0.0;
  std::uint64_t total_frames = 0;
  double frames_per_second = 0.0;
  std::uint64_t total_array_cycles = 0;
  std::uint64_t total_reconfig_cycles = 0;  ///< configuration-port cycles
  std::uint64_t me_reconfig_cycles = 0;     ///< charged against the ME kernel
  std::uint64_t dct_reconfig_cycles = 0;    ///< charged against the DCT kernel
  std::uint64_t total_fetch_cycles = 0;     ///< context-cache miss bus cycles
  int total_switches = 0;
  std::uint64_t partial_reloads = 0;   ///< switches served by a frame delta
  std::uint64_t full_reloads = 0;      ///< switches that reloaded the full stream
  std::uint64_t frames_rewritten = 0;  ///< cluster frames the partial reloads addressed
  std::uint64_t delta_bytes = 0;       ///< encoded delta bytes the port shifted
  ContextCacheStats cache;
  std::uint64_t dispatches = 0;
  std::uint64_t max_wait_dispatches = 0;
  /// Ready-set shards the run's queue used: contexts x ways
  /// (JobQueueConfig.shards sub-shards per context).
  int queue_shards = 1;
  /// Batches a fabric served from a non-home shard — sibling-way pulls
  /// of its active context plus cross-context switch-steals.
  std::uint64_t queue_steals = 0;
  /// Shard-lock acquisitions that yielded at least one job;
  /// dispatches/batches measures the amortization.
  std::uint64_t dispatch_batches = 0;
  /// Watchdog trips recorded by the attached HealthMonitor (0 when the
  /// run had no monitor, or a clean run with one).
  std::uint64_t health_anomalies = 0;
  std::uint64_t condition_switches = 0;  ///< mid-flight context changes, all streams
  std::uint64_t stale_frames = 0;        ///< frames run under a wrong-for-condition impl
  std::vector<double> fabric_busy_ms;     ///< per-fabric worker busy time
  std::vector<StageEvent> timeline;       ///< dispatch/completion event log
  std::uint64_t sim_makespan_cycles = 0;  ///< modeled-array makespan (sim_schedule)
  double sim_utilization = 0.0;           ///< mean busy fraction of the active fabrics
  /// Configuration-port cycles jobs spent waiting for a co-tenant's load
  /// on the same physical fabric to finish (sim replay; 0 untenanted).
  std::uint64_t port_contention_cycles = 0;
  /// Per-slot occupancy/contention breakdown, indexed by slot id. Filled
  /// for every run; interesting when some fabric is partitioned.
  std::vector<PartitionSummary> partitions;
  /// Per-geometry reconfiguration + placement-rejection breakdown, in
  /// first-seen fabric order (one entry per distinct geometry).
  std::vector<GeometrySummary> geometry_stats;
  std::uint64_t placement_rejections = 0;  ///< sum over geometry_stats
  int total_tiles = 0;                     ///< pool array area (cluster sites)
  /// "fabric k (WxH)" labels, indexed by fabric id — what trace tracks
  /// and diagnostics name a fabric.
  std::vector<std::string> fabric_labels;
  /// Telemetry (empty unless the run was traced): the typed two-domain
  /// span stream and the per-stream stall attribution derived from it.
  std::vector<telemetry::Span> spans;
  std::vector<telemetry::StreamAttribution> attribution;
  /// Admission-control outcome; enabled=false marks the historical
  /// admit-everything run (all other admission fields zero).
  AdmissionReport admission;
  std::uint64_t sla_violations = 0;  ///< admitted SLA streams that missed
  /// Frames delivered by streams that met their SLA (best-effort streams
  /// count in full) — the numerator overload benches compare against the
  /// admit-everything baseline.
  std::uint64_t goodput_frames = 0;
};

/// Per-stream table (impl, frames, p50/p95 latency, PSNR, cycles).
[[nodiscard]] ReportTable stream_table(const RunReport& report);

/// Per-stream condition-adaptation table: policy, first -> last context,
/// mid-flight switches, stale frames, reconfiguration cycles.
[[nodiscard]] ReportTable condition_table(const RunReport& report);

/// Per-stream admission outcome: rung, SLA bounds, pilot prediction vs
/// modeled outcome, SLA verdict. Covers every stream (admission-disabled
/// runs show rung "none" and no bounds).
[[nodiscard]] ReportTable admission_table(const RunReport& report);

/// Per-stream stall attribution: where each stream's end-to-end modeled
/// latency went — queueing / bus fetch / reconfiguration / compute, which
/// sum exactly to the end-to-end cycles. Empty-bodied for untraced runs.
[[nodiscard]] ReportTable attribution_table(const RunReport& report);

/// Aggregate comparison of two scheduling runs over the same workload
/// (reconfig cycles, switches, cache behaviour, throughput), with a final
/// "reconfig cycles saved" row of @p b relative to @p a.
[[nodiscard]] ReportTable policy_compare_table(const RunReport& a, const RunReport& b);

/// Reconfiguration breakdown of one run: partial vs full reloads, frames
/// rewritten and delta bytes shifted, per-kernel port cycles and the
/// context-fetch bus cycles (including delta-only fetches).
[[nodiscard]] ReportTable reconfig_table(const RunReport& report);

/// Per-geometry breakdown of a heterogeneous-pool run: fabrics, switches
/// and port cycles per array geometry, plus how often dispatch routed a
/// job away from the geometry on placement grounds.
[[nodiscard]] ReportTable geometry_table(const RunReport& report);

/// Per-slot occupancy/contention breakdown of a (possibly partitioned)
/// pool: which rectangle of which physical fabric each slot drives, its
/// modeled busy fraction, config-port wait, switches and region-scoped
/// programming counts.
[[nodiscard]] ReportTable partition_table(const RunReport& report);

/// Comparison of dispatch modes over the same workload and silicon
/// (throughput, per-fabric utilization, per-kernel reconfiguration), with
/// a final throughput speedup row of @p b relative to @p a.
[[nodiscard]] ReportTable mode_compare_table(const RunReport& a, const RunReport& b);

}  // namespace dsra::runtime

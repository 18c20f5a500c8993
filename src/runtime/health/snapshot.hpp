// Live health snapshots: the epoch-sampled view of runtime state.
//
// A HealthSnapshot is what an operator (or a watchdog) sees when they
// ask "is this run healthy right now?": per-shard queue depth and the
// age of the oldest queued job, cumulative steal/batch/dispatch rates,
// per-fabric utilization and context-cache pressure, and per-stream SLA
// burn rate. Snapshots are assembled by the HealthMonitor once per
// epoch from counters the hot paths already maintain — sampling adds no
// locks to dispatch or completion.
//
// This header is intentionally dependency-free (stdlib only) so the
// queue layer can expose a QueueHealthSample without pulling scheduler
// or telemetry headers into job_queue.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dsra::runtime::health {

/// One shard's live state: the JobQueue has one per context and way.
struct ShardHealth {
  int shard = 0;
  std::uint64_t depth = 0;       ///< jobs currently queued
  std::uint64_t oldest_age = 0;  ///< dispatches since the oldest job arrived
};

/// Racy-but-consistent-enough sample a queue produces on demand. The
/// JobQueue assembles it entirely from atomics, without taking a shard
/// lock (the sampler runs off the hot path, once per epoch).
struct QueueHealthSample {
  std::uint64_t depth = 0;        ///< total jobs queued across shards
  std::uint64_t oldest_age = 0;   ///< max shard oldest_age
  std::uint64_t dispatches = 0;   ///< jobs handed to workers so far
  std::uint64_t completions = 0;  ///< jobs completed so far
  std::uint64_t steals = 0;       ///< non-home-shard acquisitions so far
  std::uint64_t batches = 0;      ///< batched acquisitions so far
  std::vector<ShardHealth> shards;
};

/// Per-fabric view over one epoch plus cumulative totals.
struct FabricHealth {
  int fabric = 0;
  double utilization = 0.0;     ///< busy fraction of this epoch, in [0,1]
  double cache_pressure = 0.0;  ///< context-cache miss fraction this epoch
  std::uint64_t jobs_done = 0;  ///< cumulative
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t switches = 0;  ///< cumulative context switches
};

/// Per-stream SLA view. Budgets come from the admission cost model
/// (analytic per-frame cycles), progress from the frames-done hook.
struct StreamHealth {
  int stream_id = 0;
  bool shed = false;
  int frames_done = 0;
  int frames_total = 0;
  double consumed_cycles = 0.0;  ///< analytic cycles of completed frames
  double total_cycles = 0.0;     ///< analytic cycles of the full stream
  double deadline_cycles = 0.0;  ///< 0 = best-effort (no deadline)
  /// SLA burn rate: fraction of the deadline the stream is projected to
  /// need, i.e. projected_completion / deadline. 1.0 = exactly on
  /// budget, > 1 = projected violation. Always finite and >= 0
  /// (tools/validate_health.py enforces the range); 0 for best-effort
  /// and shed streams.
  double burn_rate = 0.0;
  double projected_completion_cycles = 0.0;
};

/// The per-epoch health sample the watchdogs evaluate and --health-dump
/// serializes.
struct HealthSnapshot {
  std::uint64_t epoch = 0;  ///< 1-based, strictly monotone within a run
  std::int64_t t_ns = 0;    ///< host ns since the monitor's recorder epoch
  double modeled_now_cycles = 0.0;  ///< analytic work done / fabric count
  /// Jobs prepared but not yet completed on any worker. Distinguishes
  /// "slow" from "stalled": a long-running job spans many epochs with
  /// zero completions, which must not read as a wedged queue.
  std::uint64_t inflight_jobs = 0;
  QueueHealthSample queue;
  std::vector<FabricHealth> fabrics;
  std::vector<StreamHealth> streams;
};

/// Serialize one snapshot as a JSON object (no trailing newline).
[[nodiscard]] std::string to_json(const HealthSnapshot& snap);

}  // namespace dsra::runtime::health

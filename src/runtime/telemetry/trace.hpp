// Runtime span tracing.
//
// The scheduler's host workers (one thread per fabric slot, plus the
// planning thread once the plan is complete) record one HostStamp per
// job they run into a per-worker append-only buffer — the job's plan
// index and three host timestamps, no lock, no string, nothing the plan
// already holds. After the workers have joined, one pass in plan order
// pairs each planned job with its stamps: that pass yields the JobTrace
// rows and typed spans in *two clock domains*:
//
//  * host wall time (steady-clock nanoseconds since the recorder epoch) —
//    what the workers actually did, useful for profiling the scheduler
//    itself;
//  * modeled array cycles — where the simulated silicon spent the
//    stream's latency. This domain is bit-deterministic: two identical
//    runs produce byte-identical modeled-cycle span streams no matter
//    how the host interleaved the workers.
//
// Zero cost when off: the scheduler holds a TraceRecorder pointer that is
// null when telemetry is disabled, and the workers' recording site is one
// untaken pointer test. Modeled-cycle results are bit-exact with tracing
// on or off by construction: recording only *observes* the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/kernel.hpp"

namespace dsra::runtime {

struct PlannedJob;   // executor.hpp
struct SimSchedule;  // sim_schedule.hpp

namespace telemetry {

/// Typed span kinds the recorder distinguishes.
enum class SpanKind : std::uint8_t {
  kDispatch,       ///< a stage job occupying its fabric, dispatch to done
  kQueueWait,      ///< a job ready but not yet running (queue + fabric busy)
  kReconfigFull,   ///< configuration port: full bitstream reload
  kReconfigDelta,  ///< configuration port: partial (cluster-frame delta) reload
  kCacheFetch,     ///< context-cache miss: bus fetch from main memory
  kStageCompute,   ///< the kernel actually computing on the array
};

[[nodiscard]] constexpr const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDispatch: return "dispatch";
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kReconfigFull: return "reconfig_full";
    case SpanKind::kReconfigDelta: return "reconfig_delta";
    case SpanKind::kCacheFetch: return "cache_fetch";
    case SpanKind::kStageCompute: return "stage_compute";
  }
  return "?";
}

/// Export track a span renders on: one track per fabric (the sub-job
/// breakdown: fetch / reconfig / compute) and one per stream (queue wait
/// and whole-job occupancy).
enum class TrackKind : std::uint8_t { kFabric, kStream };

/// One typed span in both clock domains. Modeled-cycle bounds come from
/// the run's deterministic plan; host bounds from the live recording
/// (0/0 when the host domain has no meaningful interval for the kind).
struct Span {
  SpanKind kind = SpanKind::kDispatch;
  TrackKind track = TrackKind::kStream;
  int track_id = 0;  ///< fabric id or stream id, per `track`
  int stream_id = 0;
  int frame_index = 0;
  int fabric_id = -1;
  /// Host worker that ran the job (dispatch spans only; -1 otherwise).
  int worker = -1;
  StageKind stage = StageKind::kWholeFrame;
  std::string context;  ///< bitstream the job ran under
  std::uint64_t cycle_start = 0;  ///< modeled array cycles (bit-deterministic)
  std::uint64_t cycle_end = 0;
  std::int64_t host_start_ns = 0;  ///< steady-clock ns since recorder epoch
  std::int64_t host_end_ns = 0;
};

/// One job of a traced run: the plan's decisions about it (identity,
/// fabric, context and the modeled reconfiguration breakdown) and the
/// host timestamps of the worker that ran it. The modeled start/end of
/// the job itself is *not* here — it comes from the plan, so host
/// scheduling jitter never leaks into the cycle domain.
struct JobTrace {
  int stream_id = 0;
  int frame_index = 0;
  StageKind stage = StageKind::kWholeFrame;
  int fabric_id = -1;  ///< the fabric the plan put the job on
  int worker = -1;     ///< the host worker that ran it
  std::string context;
  /// The worker went idle before it took this job: its previous job
  /// ended, or it joined the run.
  std::int64_t ready_ns = 0;
  std::int64_t dispatch_ns = 0;  ///< the worker started it
  /// = dispatch_ns: the planner prepared the context before the worker ran
  std::int64_t prepared_ns = 0;
  std::int64_t done_ns = 0;      ///< stage compute finished
  std::uint64_t fetch_cycles = 0;   ///< modeled bus cycles of the cache miss
  std::uint64_t switch_cycles = 0;  ///< modeled configuration-port cycles
  bool cache_hit = false;           ///< no bus fetch was needed
  bool switched = false;            ///< a bitstream switch was performed
  bool partial_switch = false;      ///< the switch took the delta path
};

/// What a worker records per job it runs: host facts only.
struct HostStamp {
  std::size_t job = 0;        ///< plan index
  std::int64_t ready_ns = 0;  ///< the worker went idle before taking it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-worker stamp buffers and, once the run has joined, its rows.
/// begin_run() sizes one buffer per worker; during the run each worker
/// appends only to its own buffer, so the hot path takes no lock. Not
/// thread-safe across runs: one recorder serves one scheduler run at a
/// time.
class TraceRecorder {
 public:
  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// Drop any previous run's stamps and rows and size one buffer per
  /// worker.
  void begin_run(int workers) {
    buffers_.assign(workers > 0 ? static_cast<std::size_t>(workers) : 0, {});
    rows_.clear();
  }

  /// Worker @p id's private buffer; only that worker's thread may touch it
  /// while the run is in flight.
  [[nodiscard]] std::vector<HostStamp>& worker(int id) {
    return buffers_[static_cast<std::size_t>(id)];
  }

  /// Nanoseconds since the recorder epoch.
  [[nodiscard]] std::int64_t to_ns(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  /// After the run's workers have joined: pair each job of @p plan, in
  /// plan order, with the stamps its worker recorded under its plan
  /// index. Keeps the rows merged() returns and returns the run's spans,
  /// built as build_spans() builds them, on the plan's modeled cycles.
  [[nodiscard]] std::vector<Span> join(std::span<const PlannedJob> plan);

  /// Every job's row of the last joined run, in plan order.
  [[nodiscard]] const std::vector<JobTrace>& merged() const { return rows_; }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::vector<HostStamp>> buffers_;
  std::vector<JobTrace> rows_;
};

/// Build the typed two-domain span list from a run's rows and a modeled
/// schedule of the same jobs in the same order: rows[i] is paired with
/// sim.jobs[i] (the replay of a run's timeline lists its jobs in plan
/// order). Throws std::invalid_argument when the counts or a pair's
/// (stream, frame, stage, fabric) differ. Per job: a queue_wait and a
/// dispatch span on the stream's track, and the cache_fetch ->
/// reconfig_{full,delta} -> stage_compute breakdown on the fabric's track
/// (sub-intervals of the job's modeled duration, in that order, so spans
/// on one fabric track never overlap). Sorted deterministically by
/// (track kind, track id, cycle_start, kind, stream, frame, stage).
[[nodiscard]] std::vector<Span> build_spans(const std::vector<JobTrace>& rows,
                                            const SimSchedule& sim);

}  // namespace telemetry
}  // namespace dsra::runtime

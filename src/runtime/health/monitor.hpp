// HealthMonitor: the runtime's health verdicts, judged from the plan.
//
// The scheduler plans a run in modeled array cycles before any verdict is
// needed, so health is one pass over the plan record (observe). The pass
// reads the planned jobs in plan order, the batches they were acquired
// in and the queue samples the planner took at every epoch_cycles
// boundary and at the makespan, and yields:
//   - the FlightRecorder's rings (one per fabric, plus a control ring) of
//     admission, dispatch, steal, reconfig and watchdog events;
//   - one HealthSnapshot per tick: cumulative per-fabric counters, each
//     epoch's utilization (the part of the jobs' modeled [start, end) it
//     overlaps) and cache pressure, the queue sample, and per-stream SLA
//     progress and burn rates;
//   - the Watchdogs' trips over those snapshots.
//
// A tick at modeled cycle t sees every event whose instant is <= t:
// dispatch, steal and reconfig events and cache hits, misses and switches
// happen at their batch's acquire instant, finished jobs and frames at its
// end. One input gives one set of snapshots, trips and flight records on
// any host, and the dump names no host time but host_wall_seconds.
//
// The monitor only observes: a run with one attached plans, encodes and
// costs exactly what it would without. Read its accessors after run()
// returns; RunReport::health_anomalies carries the trip count, which
// telemetry::fill_metrics exports as `health_anomalies_total`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/health/flight_recorder.hpp"
#include "runtime/health/snapshot.hpp"
#include "runtime/health/watchdog.hpp"

namespace dsra::runtime::health {

/// One stream's admission verdict and SLA; stream k is the jobs'
/// stream_id k. Its frames' cycles are the modeled compute of their
/// planned jobs; a frame the plan has no job for was encoded before the
/// run.
struct StreamBudget {
  DegradationRung rung = DegradationRung::kNone;  ///< kReject: shed, no work queued
  double deadline_cycles = 0.0;                   ///< 0 = best-effort
  int frames = 0;                                 ///< all its frames; 0 when shed
};

/// One batch of the plan: the jobs a fabric acquired at one instant and
/// ran back to back. They follow the previous batch's jobs in plan order
/// and complete together at the end of the last one.
struct PlannedBatch {
  std::size_t jobs = 0;
  std::uint64_t acquired_cycles = 0;
  int steal_shard = -1;  ///< the queue shard it was stolen from; -1 = not a steal
};

/// The queue as the planner left it at one tick.
struct PlanTick {
  std::uint64_t cycles = 0;
  QueueHealthSample queue;
};

/// A planned run as the health pass reads it.
struct PlanRecord {
  int fabrics = 0;            ///< scheduler slots, one flight ring each
  int me_fabrics = 0;         ///< slots with the motion-estimation capability
  int transform_fabrics = 0;  ///< slots with the DCT/transform capability
  std::vector<StreamBudget> streams;
  std::span<const PlannedJob> jobs;   ///< in plan order; must outlive observe()
  std::vector<PlannedBatch> batches;  ///< in plan order
  /// At every epoch boundary before the makespan, then at the makespan.
  std::vector<PlanTick> ticks;
};

struct HealthMonitorConfig {
  FlightRecorderConfig flight;
  WatchdogConfig watchdogs;
  /// Epoch length in modeled array cycles: a tick at every multiple of it
  /// before the makespan, then one at the makespan. 0 = only that tick.
  std::uint64_t epoch_cycles = 0;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthMonitorConfig config = {});

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Judge one planned run, replacing the previous run's verdicts. Throws
  /// std::invalid_argument when @p plan's batches do not cover its jobs,
  /// std::out_of_range when a job names a fabric, stream or frame it lacks.
  void observe(const PlanRecord& plan);

  [[nodiscard]] std::uint64_t epoch_cycles() const { return config_.epoch_cycles; }

  [[nodiscard]] const FlightRecorder& flight() const { return flight_; }

  [[nodiscard]] std::uint64_t anomalies_total() const { return trips_.size(); }
  [[nodiscard]] const std::vector<WatchdogTrip>& trips() const { return trips_; }
  [[nodiscard]] const std::vector<HealthSnapshot>& snapshots() const { return snapshots_; }
  [[nodiscard]] std::uint64_t epochs() const { return snapshots_evicted_ + snapshots_.size(); }

  /// Snapshots retained (the oldest are evicted past this); bounds the
  /// dump of a long run.
  static constexpr std::size_t kMaxSnapshots = 512;

  /// Schema version of the health dump JSON ("kind": "health").
  static constexpr int kSchemaVersion = 3;

  /// The full post-mortem: config, anomaly count, retained snapshots,
  /// trips, and the flight recorder contents.
  [[nodiscard]] std::string health_json(double host_wall_seconds = 0.0) const;

  /// Write health_json to @p path. Returns false on I/O failure.
  bool dump(const std::string& path, double host_wall_seconds = 0.0) const;

 private:
  HealthMonitorConfig config_;
  FlightRecorder flight_;
  Watchdogs dogs_;

  std::size_t fabrics_ = 0;
  std::vector<HealthSnapshot> snapshots_;
  std::uint64_t snapshots_evicted_ = 0;
  std::vector<WatchdogTrip> trips_;
};

}  // namespace dsra::runtime::health

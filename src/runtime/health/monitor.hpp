// HealthMonitor: the live-introspection front door for the runtime.
//
// Owns the three health parts and wires them together:
//   - a FlightRecorder the scheduler's planner appends scheduling events
//     to (one ring per fabric, plus a control ring);
//   - per-fabric and per-stream progress counters fed by the planner's
//     hooks: on_prepare when a fabric acquires a job (with the job's
//     modeled [start, end), which each epoch's utilization is credited
//     from), on_job_done and on_frame_done when its batch completes at
//     its modeled end;
//   - epoch ticks that assemble a HealthSnapshot from those counters and
//     the queue sample the planner passes in, and run the Watchdogs over
//     it.
//
// Everything runs in modeled array cycles on the planner's thread: the
// planner ticks the monitor at every epoch_cycles boundary its clock
// crosses and once more at the makespan, so one input gives one set of
// snapshots, trips and flight records on any host.
//
// When a watchdog trips, the monitor records a kWatchdogTrip flight
// event, counts it in anomalies_total (the run's
// RunReport::health_anomalies, exported by telemetry::fill_metrics as
// `health_anomalies_total`), invokes the user callback, and —
// when a dump path is configured — writes the full health post-mortem
// (snapshots + trips + flight recorder) as schema-stamped JSON.
//
// The scheduler treats the monitor exactly like the trace recorder:
// a single null-guarded pointer, so health off is zero-cost and
// bit-exact. The monitor is single-threaded: read its accessors after
// run() returns, or from the trip callback, which runs on the planner's
// thread mid-run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/health/flight_recorder.hpp"
#include "runtime/health/snapshot.hpp"
#include "runtime/health/watchdog.hpp"

namespace dsra::runtime::health {

/// Analytic SLA budget for one stream, computed by the scheduler from
/// the admission cost model at run start. Keeping this a plain struct
/// (ids + cycles) keeps the health layer decoupled from job/admission
/// headers.
struct StreamBudget {
  int stream_id = 0;
  bool shed = false;              ///< rejected by admission; no work queued
  double deadline_cycles = 0.0;   ///< 0 = best-effort
  int frames_done_at_start = 0;
  std::vector<double> frame_cycles;  ///< analytic cycles per frame, all frames
};

struct HealthMonitorConfig {
  FlightRecorderConfig flight;
  WatchdogConfig watchdogs;
  /// Epoch length in modeled array cycles: the scheduler's planner ticks
  /// the monitor at every multiple of it that its clock crosses, then
  /// once more at the makespan. 0 = only that final tick.
  std::uint64_t epoch_cycles = 0;
  /// When non-empty, every watchdog trip rewrites this file with the
  /// full health post-mortem JSON.
  std::string dump_path;
  /// Snapshots retained in memory (oldest evicted past this); bounds
  /// the dump size for long runs.
  std::size_t max_snapshots = 512;
};

class HealthMonitor {
 public:
  using TripCallback =
      std::function<void(const WatchdogTrip&, const HealthSnapshot&)>;

  explicit HealthMonitor(HealthMonitorConfig config = {});

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Reset all state for a new run: per-fabric counters, flight rings,
  /// and the stream budgets.
  void begin_run(int fabrics, std::vector<StreamBudget> budgets);

  // ---- planner hooks ------------------------------------------------
  /// @p fabric acquired a job that keeps it busy over the modeled cycles
  /// [@p busy_start, @p busy_end): every epoch is credited the part of
  /// that interval it overlaps.
  void on_prepare(int fabric, bool cache_hit, bool switched, std::uint64_t busy_start,
                  std::uint64_t busy_end);
  void on_job_done(int fabric);
  void on_frame_done(int stream_index);

  /// Close one epoch at modeled cycle @p now_cycles: assemble a snapshot
  /// from the counters and @p queue, run the watchdogs, handle any
  /// trips. Returns the snapshot.
  HealthSnapshot tick(std::uint64_t now_cycles, QueueHealthSample queue);

  void set_on_trip(TripCallback cb) { on_trip_ = std::move(cb); }

  [[nodiscard]] std::uint64_t epoch_cycles() const { return config_.epoch_cycles; }

  // Read these after run() returns, or from the trip callback.
  [[nodiscard]] FlightRecorder& flight() { return flight_; }
  [[nodiscard]] const FlightRecorder& flight() const { return flight_; }

  [[nodiscard]] std::uint64_t anomalies_total() const { return trips_.size(); }
  [[nodiscard]] const std::vector<WatchdogTrip>& trips() const { return trips_; }
  [[nodiscard]] const std::vector<HealthSnapshot>& snapshots() const { return snapshots_; }
  [[nodiscard]] std::uint64_t epochs() const { return epoch_; }

  /// Schema version of the health dump JSON ("kind": "health").
  static constexpr int kSchemaVersion = 3;

  /// The full post-mortem: config, anomaly count, retained snapshots,
  /// trips, and the flight recorder contents.
  [[nodiscard]] std::string health_json(double host_wall_seconds = 0.0) const;

  /// Write health_json to @p path. Returns false on I/O failure.
  bool dump(const std::string& path, double host_wall_seconds = 0.0) const;

 private:
  struct FabricCounters {
    std::uint64_t jobs_done = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t switches = 0;
  };
  struct StreamState {
    StreamBudget budget;
    std::vector<double> prefix;  ///< prefix[i] = cycles of first i frames
    int frames_done = 0;
  };

  HealthSnapshot assemble(std::uint64_t now_cycles, QueueHealthSample queue);

  HealthMonitorConfig config_;
  FlightRecorder flight_;
  Watchdogs dogs_;
  TripCallback on_trip_;

  struct BusyInterval {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };

  std::vector<FabricCounters> fabrics_;
  std::vector<FabricCounters> at_prev_tick_;  ///< fabrics_ as the last tick saw them
  /// Per fabric: the acquired jobs' busy intervals that end after the
  /// last tick, so a later epoch still has cycles to credit.
  std::vector<std::vector<BusyInterval>> busy_;
  std::vector<StreamState> streams_;

  std::uint64_t epoch_ = 0;
  std::uint64_t prev_tick_cycles_ = 0;
  std::vector<HealthSnapshot> snapshots_;
  std::uint64_t snapshots_evicted_ = 0;
  std::vector<WatchdogTrip> trips_;
};

}  // namespace dsra::runtime::health

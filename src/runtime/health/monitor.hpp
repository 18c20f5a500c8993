// HealthMonitor: the live-introspection front door for the runtime.
//
// Owns the three health parts and wires them together:
//   - a FlightRecorder the scheduler's planner appends scheduling events
//     to (one ring per fabric, so each ring keeps one writer);
//   - per-fabric and per-stream progress counters fed by lock-free
//     hooks: the planner calls on_prepare when it acquires a job, the
//     lanes call on_job_done / on_frame_done when they have encoded it,
//     so a job counts as in flight from acquire to encoded;
//   - an epoch sampler that assembles HealthSnapshots (pulling the queue
//     sample the planner last published through an attached callback)
//     and runs the Watchdogs over them.
//
// When a watchdog trips, the monitor records a kWatchdogTrip flight
// event, increments anomalies_total (exported by the scheduler as the
// `health_anomalies_total` metric), invokes the user callback, and —
// when a dump path is configured — writes the full health post-mortem
// (snapshots + trips + flight recorder) as schema-stamped JSON.
//
// Epoch ticks can be driven by the built-in sampler thread
// (epoch_host_ms > 0) for live runs, or manually via tick() for
// deterministic tests. The scheduler treats the monitor exactly like
// the trace/metrics sinks: a single null-guarded pointer, so health off
// is zero-cost and bit-exact.
//
// Thread-safety: the hooks and flight recording are lock-free and
// callable from any thread; tick()/attach_queue()/dump() serialize on
// one internal mutex that no hot path ever touches.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
  /// Sampler thread epoch period in host milliseconds; 0 disables the
  /// thread (epochs then only advance via manual tick()).
  double epoch_host_ms = 0.0;
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
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Reset all state for a new run: allocate per-fabric counters and
  /// flight rings, install the stream budgets, and (if configured)
  /// start the sampler thread.
  void begin_run(int fabrics, std::vector<StreamBudget> budgets);

  /// Install the queue sampler the epoch tick pulls depth/age/steal
  /// state through. The callback must stay valid until finish_run().
  void attach_queue(std::function<QueueHealthSample()> sampler);

  /// Final tick, stop the sampler thread, drop the queue sampler.
  /// Must be called before the queue the sampler reads is destroyed.
  void finish_run();

  // ---- lock-free worker hooks -------------------------------------
  void on_prepare(int fabric, bool cache_hit, bool switched);
  void on_job_done(int fabric, std::int64_t busy_ns);
  void on_frame_done(int stream_index);

  /// Advance one epoch now: assemble a snapshot, run the watchdogs,
  /// handle any trips. Returns the snapshot. Safe to call concurrently
  /// with the sampler thread and the worker hooks.
  HealthSnapshot tick();

  void set_on_trip(TripCallback cb) { on_trip_ = std::move(cb); }

  [[nodiscard]] FlightRecorder& flight() { return flight_; }
  [[nodiscard]] const FlightRecorder& flight() const { return flight_; }

  [[nodiscard]] std::uint64_t anomalies_total() const {
    return anomalies_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<WatchdogTrip> trips() const;
  [[nodiscard]] std::vector<HealthSnapshot> snapshots() const;
  [[nodiscard]] std::uint64_t epochs() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Schema version of the health dump JSON ("kind": "health").
  static constexpr int kSchemaVersion = 1;

  /// The full post-mortem: config, anomaly count, retained snapshots,
  /// trips, and the flight recorder contents.
  [[nodiscard]] std::string health_json(double host_wall_seconds = 0.0) const;

  /// Write health_json to @p path. Returns false on I/O failure.
  bool dump(const std::string& path, double host_wall_seconds = 0.0) const;

 private:
  struct FabricCounters {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> jobs_done{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> cache_misses{0};
    std::atomic<std::uint64_t> switches{0};
  };
  struct StreamState {
    StreamBudget budget;
    std::vector<double> prefix;  ///< prefix[i] = cycles of first i frames
    std::atomic<int> frames_done{0};
  };

  HealthSnapshot assemble_locked();
  void handle_trips(const std::vector<WatchdogTrip>& fired,
                    const HealthSnapshot& snap);
  void stop_sampler();

  HealthMonitorConfig config_;
  FlightRecorder flight_;
  Watchdogs dogs_;
  TripCallback on_trip_;

  int fabric_count_ = 0;
  std::unique_ptr<FabricCounters[]> fabric_counters_;
  std::vector<std::unique_ptr<StreamState>> streams_;

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> anomalies_{0};
  /// prepares (planner) minus encoded jobs (lanes) — the stall
  /// watchdog's slow-vs-wedged discriminator.
  std::atomic<std::int64_t> inflight_{0};

  mutable std::mutex m_;
  std::function<QueueHealthSample()> queue_sampler_;
  std::vector<HealthSnapshot> snapshots_;
  std::uint64_t snapshots_evicted_ = 0;
  std::vector<WatchdogTrip> trips_;
  std::int64_t prev_t_ns_ = 0;
  std::vector<std::uint64_t> prev_busy_ns_;
  std::vector<std::uint64_t> prev_hits_;
  std::vector<std::uint64_t> prev_misses_;

  std::thread sampler_;
  std::mutex sampler_m_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
};

}  // namespace dsra::runtime::health

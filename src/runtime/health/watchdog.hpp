// Anomaly watchdogs: declarative per-epoch checks over HealthSnapshots.
//
// Each watchdog encodes one production failure smell as a threshold
// over consecutive snapshots:
//   - stall:      jobs are queued, nothing is in flight, and nothing
//                 completed for N epochs (livelocked steal loop, wedged
//                 worker, lost wakeup — but NOT a slow job: in-flight
//                 work suppresses the verdict);
//   - queue growth: total depth grew strictly monotonically for N
//                 epochs above a floor (arrival rate > service rate);
//   - starvation: the oldest queued job's age exceeded a bound the
//                 ageing valve should keep it under (the valve serves a
//                 head the moment it ages, and a batch stops before
//                 another context's head would — an older job means the
//                 valve is not keeping its promise);
//   - SLA burn:   a stream's projected completion overshoots its
//                 deadline by the burn threshold after a warmup
//                 fraction of the deadline has elapsed.
//
// Watchdogs are pure state machines over the snapshot stream — they do
// not read runtime state themselves, which makes every one of them
// testable with synthetic snapshots (tests/test_health.cpp) and keeps
// evaluation on the monitor's epoch thread, never a hot path. Each
// watchdog latches: one trip per run (per stream, for SLA burn), so a
// persistent anomaly produces one post-mortem dump, not one per epoch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/health/snapshot.hpp"

namespace dsra::runtime::health {

enum class WatchdogKind : std::uint8_t {
  kStall = 1,
  kQueueGrowth,
  kStarvation,
  kSlaBurn,
};

[[nodiscard]] constexpr const char* to_string(WatchdogKind kind) {
  switch (kind) {
    case WatchdogKind::kStall: return "stall";
    case WatchdogKind::kQueueGrowth: return "queue_growth";
    case WatchdogKind::kStarvation: return "starvation";
    case WatchdogKind::kSlaBurn: return "sla_burn";
  }
  return "?";
}

struct WatchdogConfig {
  /// Trip the stall detector after this many consecutive epochs with
  /// queued jobs, zero in-flight jobs, and zero completion progress.
  int stall_epochs = 3;
  /// Trip the growth detector after this many consecutive epochs of
  /// strictly increasing total depth...
  int growth_epochs = 5;
  /// ...but only once depth is at least this (small ramps at run start
  /// are normal admission transients, not anomalies).
  std::uint64_t growth_min_depth = 16;
  /// Trip the starvation detector when the oldest queued job's age (in
  /// dispatches) exceeds this. The default is twice the default
  /// aging_threshold: one threshold of waiting before the valve serves
  /// the job, and one more of service margin.
  std::uint64_t starvation_age_bound = 128;
  /// Trip the SLA burn detector when burn_rate exceeds this...
  double burn_threshold = 1.25;
  /// ...and at least this fraction of the deadline has elapsed (early
  /// projections are noisy while only a frame or two has finished).
  double burn_warmup = 0.10;
};

/// One tripped watchdog.
struct WatchdogTrip {
  WatchdogKind kind = WatchdogKind::kStall;
  std::uint64_t epoch = 0;   ///< snapshot epoch that tripped it
  int stream_id = -1;        ///< kSlaBurn only
  std::string detail;        ///< human-readable cause
};

/// Stateful evaluator: feed it each epoch's snapshot in order; it
/// returns the trips newly fired by that snapshot (already-latched
/// kinds stay quiet).
class Watchdogs {
 public:
  explicit Watchdogs(WatchdogConfig config = {}) : config_(config) {}

  /// Reset all state for a new run.
  void reset();

  [[nodiscard]] std::vector<WatchdogTrip> evaluate(const HealthSnapshot& snap);

  [[nodiscard]] const WatchdogConfig& config() const { return config_; }

 private:
  WatchdogConfig config_;
  bool seen_any_ = false;
  std::uint64_t prev_completions_ = 0;
  std::uint64_t prev_depth_ = 0;
  int stall_run_ = 0;
  int growth_run_ = 0;
  bool stall_latched_ = false;
  bool growth_latched_ = false;
  bool starvation_latched_ = false;
  std::vector<int> burn_latched_streams_;
};

}  // namespace dsra::runtime::health

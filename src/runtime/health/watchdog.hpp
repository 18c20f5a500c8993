// Anomaly watchdogs: declarative per-epoch checks over HealthSnapshots.
//
// Each watchdog encodes one production failure smell as a threshold
// over consecutive snapshots (work no fabric can take needs none: the
// planner throws at the makespan when jobs are left):
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
// evaluation at the epoch ticks, off the per-job path. Each
// watchdog latches: one trip per run (per stream, for SLA burn), so a
// persistent anomaly is one trip, not one per epoch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/health/snapshot.hpp"

namespace dsra::runtime::health {

/// A kWatchdogTrip flight event records the value; keep each stable.
enum class WatchdogKind : std::uint8_t {
  kQueueGrowth = 2,
  kStarvation,
  kSlaBurn,
};

[[nodiscard]] constexpr const char* to_string(WatchdogKind kind) {
  switch (kind) {
    case WatchdogKind::kQueueGrowth: return "queue_growth";
    case WatchdogKind::kStarvation: return "starvation";
    case WatchdogKind::kSlaBurn: return "sla_burn";
  }
  return "?";
}

struct WatchdogConfig {
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
  WatchdogKind kind = WatchdogKind::kQueueGrowth;
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

  [[nodiscard]] std::vector<WatchdogTrip> evaluate(const HealthSnapshot& snap);

  [[nodiscard]] const WatchdogConfig& config() const { return config_; }

 private:
  WatchdogConfig config_;
  bool seen_any_ = false;
  std::uint64_t prev_depth_ = 0;
  int growth_run_ = 0;
  bool growth_latched_ = false;
  bool starvation_latched_ = false;
  std::vector<int> burn_latched_streams_;
};

}  // namespace dsra::runtime::health

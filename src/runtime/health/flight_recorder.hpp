// Flight recorder: an always-on, fixed-capacity event log.
//
// Production post-mortems need the last few thousand scheduling decisions
// at the moment something went wrong — not a full trace of the whole run
// (TraceRecorder, unbounded) and not a counter summary (MetricsRegistry,
// no ordering). The flight recorder is the black box between the two:
// one fixed-capacity ring of FlightEvents per fabric (plus one control
// ring for admission/watchdog events), overwriting the oldest record when
// full, dumpable as schema-stamped JSON.
//
// Every record is stamped with the modeled array cycle it happened at.
// The HealthMonitor's pass over the plan record is the only writer, so
// one input gives one recorder content on any host. The recorder is
// single-threaded: read it after run() returns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dsra::runtime::health {

/// Compact event kinds the recorder distinguishes — the scheduling
/// decisions a post-mortem reconstructs the last moments from.
enum class EventKind : std::uint8_t {
  kDispatch = 1,   ///< a fabric acquired a stage job (value = StageKind)
  kSteal,          ///< the queue served a non-home shard (value = context id)
  kReconfig,       ///< a bitstream switch was paid (value = reconfig cycles)
  kShed,           ///< admission rejected the stream (value = rung)
  kRungTransition, ///< admission degraded the stream (value = rung)
  kWatchdogTrip,   ///< an anomaly watchdog fired (value = WatchdogKind)
};

[[nodiscard]] constexpr const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kDispatch: return "dispatch";
    case EventKind::kSteal: return "steal";
    case EventKind::kReconfig: return "reconfig";
    case EventKind::kShed: return "shed";
    case EventKind::kRungTransition: return "rung_transition";
    case EventKind::kWatchdogTrip: return "watchdog_trip";
  }
  return "?";
}

/// One flight-recorder record.
struct FlightEvent {
  std::uint64_t seq = 0;       ///< global record order (1-based, gap = overwritten)
  std::uint64_t t_cycles = 0;  ///< modeled array cycle the event happened at
  EventKind kind = EventKind::kDispatch;
  int ring = -1;    ///< fabric id, or the control ring (== fabric count)
  int stream_id = -1;
  int frame_index = -1;
  std::uint64_t value = 0;  ///< kind-specific payload (see EventKind)
};

struct FlightRecorderConfig {
  /// Records per ring, rounded up to a power of two (>= 16). The default
  /// keeps ~1k records per fabric — the last few hundred batches of
  /// scheduling history, tens of KB of memory.
  std::size_t capacity_per_ring = 1024;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  /// Drop any previous run's rings and open @p fabrics fabric rings plus
  /// one control ring (ring id == @p fabrics) for events that belong to
  /// no fabric (admission decisions, watchdog trips).
  void begin_run(int fabrics);

  [[nodiscard]] int rings() const { return static_cast<int>(rings_.size()); }
  [[nodiscard]] int control_ring() const { return rings() - 1; }
  [[nodiscard]] std::size_t capacity_per_ring() const { return capacity_; }

  /// Append one record to @p ring, overwriting its oldest once the ring
  /// is full. Out-of-range rings are dropped silently — recording must
  /// never throw mid-run.
  void record(int ring, std::uint64_t t_cycles, EventKind kind, int stream_id, int frame_index,
              std::uint64_t value);

  /// Every surviving record, merged across the rings in global sequence
  /// order.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// Records overwritten so far (ring writes past capacity), summed over
  /// the rings — how much history the post-mortem window has lost.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Total records written since begin_run.
  [[nodiscard]] std::uint64_t recorded() const { return seq_; }

  /// The snapshot as a JSON object string:
  ///   {"capacity_per_ring": N, "recorded": N, "dropped": N,
  ///    "events": [{"seq": .., "t_cycles": .., "kind": "..", "ring": ..,
  ///                "stream": .., "frame": .., "value": ..}, ...]}
  /// Embedded under "flight_recorder" in the health dump, and the
  /// payload tools/validate_trace.py checks for monotone sequence
  /// numbers and known kinds.
  [[nodiscard]] std::string json() const;

 private:
  struct Ring {
    std::vector<FlightEvent> slots;  ///< grows to capacity_, then wraps
    std::uint64_t head = 0;          ///< records ever written to this ring
  };

  std::size_t capacity_ = 0;  ///< power of two
  std::vector<Ring> rings_;
  std::uint64_t seq_ = 0;  ///< global record order
};

}  // namespace dsra::runtime::health

// Flight recorder: an always-on, fixed-capacity, lock-free event log.
//
// Production post-mortems need the last few thousand scheduling decisions
// at the moment something went wrong — not a full trace of the whole run
// (PR 6's TraceRecorder, unbounded and merge-on-drain) and not a counter
// summary (MetricsRegistry, no ordering). The flight recorder is the
// black box between the two: one fixed-capacity ring of compact event
// records per fabric (plus one control ring for admission/watchdog
// events), each written only by its owning worker thread, overwriting
// the oldest record when full, and dumpable as schema-stamped JSON at
// any moment — including while the run is in flight.
//
// Lock-free and tear-free by construction: every slot is four relaxed
// std::atomic<u64> words sealed by a seqlock-style sequence word. The
// writer invalidates the slot (seq <- 0), writes the payload words, then
// publishes the globally-ordered sequence number with release semantics;
// a reader validates that the sequence word is unchanged (and non-zero)
// after copying the payload and simply skips records that were overwritten
// mid-read. Relaxed atomic stores compile to plain stores on every target
// we build for, so the record cost is a timestamp read plus five stores —
// the <1% host overhead budget bench_health_overhead bars.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
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

/// One decoded flight-recorder record.
struct FlightEvent {
  std::uint64_t seq = 0;  ///< global record order (1-based, gap = overwritten)
  std::int64_t t_ns = 0;  ///< host ns since the recorder epoch
  EventKind kind = EventKind::kDispatch;
  int ring = -1;    ///< fabric id, or the control ring (== fabric count)
  int stream_id = -1;
  int frame_index = -1;
  std::uint64_t value = 0;  ///< kind-specific payload (see EventKind)
};

struct FlightRecorderConfig {
  /// Slots per ring, rounded up to a power of two (>= 16). The default
  /// keeps ~1k records per fabric — a few seconds of scheduling history
  /// at production dispatch rates, tens of KB of memory.
  std::size_t capacity_per_ring = 1024;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  /// Drop any previous run's rings and allocate @p fabrics worker rings
  /// plus one control ring (ring id == @p fabrics) for events recorded
  /// off the worker threads (admission decisions, watchdog trips).
  void begin_run(int fabrics);

  [[nodiscard]] int rings() const { return static_cast<int>(ring_count_); }
  [[nodiscard]] int control_ring() const { return static_cast<int>(ring_count_) - 1; }
  [[nodiscard]] std::size_t capacity_per_ring() const { return capacity_; }

  /// Append one record to @p ring. Lock-free; each ring must only be
  /// written by one thread at a time (workers own their fabric's ring,
  /// the monitor/scheduler thread owns the control ring). Out-of-range
  /// rings are dropped silently — recording must never throw mid-run.
  void record(int ring, EventKind kind, int stream_id, int frame_index,
              std::uint64_t value);

  /// Tear-free copy of every currently-valid record, merged across the
  /// rings in global sequence order. Callable at any moment, including
  /// while workers are recording: records overwritten mid-copy are
  /// skipped, never returned torn.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// Records overwritten so far (ring writes past capacity), summed over
  /// the rings — how much history the post-mortem window has lost.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Total records written since begin_run.
  [[nodiscard]] std::uint64_t recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the recorder epoch (the construction instant).
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// The snapshot as a JSON object string:
  ///   {"capacity_per_ring": N, "recorded": N, "dropped": N,
  ///    "events": [{"seq": .., "t_ns": .., "kind": "..", "ring": ..,
  ///                "stream": .., "frame": .., "value": ..}, ...]}
  /// Embedded under "flight_recorder" in the health dump, and the
  /// payload tools/validate_health.py checks for monotone sequence
  /// numbers and known kinds.
  [[nodiscard]] std::string json() const;

 private:
  /// Seqlock-sealed slot: w0 is the sequence word (0 = invalid /
  /// mid-write), w1 the timestamp, w2 the packed identity
  /// (kind | stream+1 | frame+1), w3 the payload value.
  struct Slot {
    std::atomic<std::uint64_t> w0{0};
    std::atomic<std::uint64_t> w1{0};
    std::atomic<std::uint64_t> w2{0};
    std::atomic<std::uint64_t> w3{0};
  };
  struct Ring {
    std::unique_ptr<Slot[]> slots;
    std::atomic<std::uint64_t> head{0};  ///< records ever written to this ring
  };

  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_ = 0;  ///< power of two
  std::size_t mask_ = 0;
  std::size_t ring_count_ = 0;
  std::unique_ptr<Ring[]> rings_;
  std::atomic<std::uint64_t> seq_{0};  ///< global record order
};

}  // namespace dsra::runtime::health

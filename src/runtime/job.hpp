// Multi-stream encode jobs.
//
// A StreamJob is one client's encode request: a frame sequence, a runtime
// condition (battery / channel quality, which the SoC policy maps to a DCT
// bitstream) and the per-stream state the scheduler threads through the
// frame-at-a-time encoder. Frames of one stream are strictly ordered
// (inter frames predict from the previous reconstruction); frames of
// different streams are independent — exactly the parallelism a pool of
// reconfigurable fabrics can exploit. In stage-pipeline mode a frame is
// further split into ME -> DCT/quant -> reconstruct stage jobs, and the
// per-frame FramePipelineState carries the intermediate results (motion
// vectors, prediction, quantised levels) between the fabrics that run
// them. The executor (executor.hpp) runs a stream's jobs one at a time in
// plan order and orders each job's writes before the next one's reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/kernel.hpp"
#include "soc/reconfig.hpp"
#include "soc/trajectory.hpp"
#include "video/codec.hpp"
#include "video/frame.hpp"

namespace dsra::runtime {

/// Per-stream service-level agreement in modeled array cycles — the
/// deterministic clock domain every latency claim in this runtime lives
/// in (host wall time depends on the build machine; the modeled plan
/// does not). Zero fields are unconstrained: the default SLA is
/// best-effort.
struct StreamSla {
  /// Whole-stream completion deadline: the last frame must be
  /// reconstructed within this many modeled cycles of run start.
  std::uint64_t deadline_cycles = 0;
  /// Per-frame p99 latency budget (frame ready to reconstructed).
  std::uint64_t p99_budget_cycles = 0;

  [[nodiscard]] bool best_effort() const {
    return deadline_cycles == 0 && p99_budget_cycles == 0;
  }
};

/// Rung of the graceful-degradation ladder admission walks before
/// shedding a stream. Rungs are cumulative quality concessions: a
/// resolution drop also carries the QP bump, an impl swap carries both.
enum class DegradationRung {
  kNone = 0,        ///< admitted as requested
  kQpBump,          ///< coarser quantiser (bits down, quality down)
  kResolutionDrop,  ///< frames downscaled 2x per axis (4x fewer blocks)
  kImplSwap,        ///< cheapest fitting DCT context instead of the chosen one
  kReject,          ///< no rung fit: the stream is shed
};

[[nodiscard]] std::string to_string(DegradationRung rung);

struct StreamConfig {
  std::string name = "stream";
  int width = 64;
  int height = 64;
  int frame_budget = 8;
  soc::RuntimeCondition condition;
  /// Per-frame condition time series; null means `condition` holds for
  /// every frame (the static world the runtime started from).
  soc::TrajectoryPtr trajectory;
  /// How the trajectory is turned into per-frame bitstream choices.
  soc::ConditionPolicy condition_policy = soc::ConditionPolicy::kFrozen;
  double hysteresis_band = 0.05;  ///< boundary band for kHysteresis
  video::CodecConfig codec;
  std::uint64_t seed = 2004;
  /// Deadline / latency targets the admission controller tests against
  /// the sim schedule. Best-effort streams carry no targets of their own
  /// but still walk the ladder: their load counts against the admitted
  /// set's SLAs, so they too can be degraded or shed to protect it.
  StreamSla sla;
};

/// Latency and cost record of one completed frame.
struct FrameRecord {
  int frame_index = 0;
  int fabric_id = -1;     ///< fabric of the whole-frame job / reconstruct stage
  int me_fabric_id = -1;  ///< fabric that ran the ME stage (-1: inline / intra)
  int tq_fabric_id = -1;  ///< fabric that ran the DCT/quant stage (-1: inline)
  std::string impl;       ///< DCT bitstream the frame was encoded under
  double latency_ms = 0.0;            ///< host: first stage started to reconstructed
  /// Modeled first-ready-to-reconstructed latency, stamped from the
  /// run's plan (0 until then). This is the clock domain SLA budgets are
  /// written in.
  std::uint64_t latency_cycles = 0;
  std::uint64_t wait_dispatches = 0;  ///< worst queue wait over the frame's jobs
  std::uint64_t reconfig_cycles = 0;  ///< context fetch + configuration-port switch
  video::FrameStats stats;
};

/// In-flight stage state of one frame. The executor runs one stream's
/// jobs one at a time in plan order, so the fields need no locking of
/// their own.
struct FramePipelineState {
  video::MotionStageResult motion;
  video::TransformStageResult transform;
  int me_fabric_id = -1;
  int tq_fabric_id = -1;
  std::chrono::steady_clock::time_point first_start;  ///< host: first stage job started
  std::uint64_t reconfig_cycles = 0;                  ///< summed over the stage jobs
  std::uint64_t max_wait_dispatches = 0;
};

/// One stream's full runtime state. Owned by the caller and mutated by the
/// scheduler; the executor runs at most one of a stream's jobs at any
/// moment.
struct StreamJob {
  int id = 0;
  StreamConfig config;
  std::string impl_name;  ///< frame-0 DCT bitstream (static config-affinity key)
  std::vector<video::Frame> frames;
  /// Per-frame DCT context resolved from the trajectory + condition
  /// policy; empty for a static stream (impl_name holds for every frame).
  /// Immutable during a scheduler run, so the queue reads it lock-free.
  std::vector<std::string> frame_impls;
  /// The sampled (clamped) trajectory, one entry per frame; empty for a
  /// static stream. Stats use it to spot stale frozen assignments.
  std::vector<soc::RuntimeCondition> frame_conditions;
  /// Frames whose resolved context differs from the previous frame's —
  /// each one forces the scheduler to re-bucket the stream mid-flight.
  int condition_switches = 0;
  /// Ladder rung the admission controller applied before the run.
  /// kReject marks a shed stream: it is skipped by the queue and encodes
  /// nothing. Rung transitions are also counted in the run's telemetry.
  DegradationRung admission_rung = DegradationRung::kNone;
  /// Admission's pilot-schedule estimates (0 when the controller never
  /// ran) — what the deadline-feasibility test compared against the SLA.
  std::uint64_t predicted_completion_cycles = 0;
  std::uint64_t predicted_p99_cycles = 0;
  /// Modeled end of the stream's last frame, stamped from the run's plan
  /// (0 until then / for shed streams) — what the completion-deadline SLA
  /// is judged against.
  std::uint64_t modeled_completion_cycles = 0;
  video::Frame recon_state;  ///< previous reconstruction (empty before frame 0)
  int next_frame = 0;        ///< frames fully encoded (reconstruction done)
  std::vector<FramePipelineState> pipeline;  ///< stage mode: one slot per frame
  std::vector<FrameRecord> records;

  [[nodiscard]] bool finished() const {
    return next_frame >= static_cast<int>(frames.size());
  }

  /// DCT context frame @p frame runs under: the per-frame resolution for
  /// a dynamic stream, the static impl_name otherwise.
  [[nodiscard]] const std::string& impl_for(int frame) const {
    if (frame_impls.empty()) return impl_name;
    if (frame < 0) frame = 0;
    const auto last = frame_impls.size() - 1;
    const auto idx = static_cast<std::size_t>(frame);
    return frame_impls[idx > last ? last : idx];
  }
};

/// Build a job whose frames are a synthetic sequence generated from
/// config.seed; the DCT implementation is resolved from the (clamped)
/// runtime condition via the SoC selection policy. A config with a
/// trajectory gets the whole per-frame impl sequence resolved up front
/// (see resolve_stream_conditions).
[[nodiscard]] StreamJob make_synthetic_job(int id, const StreamConfig& config);

/// Sample @p job's trajectory once per frame and resolve the per-frame
/// DCT context under the configured condition policy, filling
/// frame_conditions / frame_impls / condition_switches and aligning
/// impl_name with frame 0. No-op for a stream without a trajectory. The
/// resolution is eager and deterministic so it is immutable — and
/// therefore lock-free to read — while a scheduler run is in flight.
void resolve_stream_conditions(StreamJob& job);

/// A schedulable unit of work: stage @p stage of frame @p frame_index of
/// stream @p stream_id (kWholeFrame = the legacy monolithic frame job).
struct FrameTask {
  int stream_id = 0;
  int frame_index = 0;
  StageKind stage = StageKind::kWholeFrame;
  std::uint64_t wait_dispatches = 0;  ///< dispatches served while it waited
};

/// One entry of the dispatch timeline the queue records: a stage job
/// starting (dispatch) or completing on a fabric. Ticks are globally
/// monotone, so ordering and overlap assertions are exact.
struct StageEvent {
  std::uint64_t tick = 0;
  bool start = false;  ///< true: dispatched; false: completed
  int stream_id = 0;
  int frame_index = 0;
  int fabric_id = -1;
  StageKind stage = StageKind::kWholeFrame;
  /// Completion events carry the context-fetch + configuration-port
  /// cycles the job paid before running, so the timeline replay charges
  /// reconfiguration into the modeled makespan.
  std::uint64_t reconfig_cycles = 0;
};

}  // namespace dsra::runtime

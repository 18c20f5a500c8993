// Per-layer replays of the traced run.
//
// Each replay calls one layer's public functions on the workload's own
// inputs, timed with the benchmark's steady clock around every call —
// spans the benchmark records itself, since nothing under src/ records
// them. Every replay runs for a bounded time and returns the mean cost of
// one operation; a replay with nothing to do returns 0.
#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/telemetry/trace.hpp"
#include "workloads.hpp"

namespace servebench {

/// Host time budget of one replay loop, in seconds.
inline constexpr double kReplayBudgetS = 0.25;

/// Seconds of the benchmark's steady clock since @p t0.
[[nodiscard]] inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// map::compile of every DCT implementation onto every geometry the
/// workload's library builds; ms per compile attempt (a place/route
/// refusal is part of what the library build pays). @p attempts receives
/// the attempt count.
[[nodiscard]] double replay_mapper_compile_ms(const Workload& w, int& attempts);

/// me::systolic_search over the macroblocks of the streams' inter frames
/// (open-loop: each frame against the previous original), us per block.
[[nodiscard]] double replay_me_search_us(const std::vector<dsra::runtime::StreamJob>& streams,
                                         const dsra::me::SystolicParams& params);

/// dct::forward_2d of the streams' level-shifted 8x8 luma blocks through
/// each implementation in @p impls; us per block.
[[nodiscard]] double replay_dct_forward_us(const dsra::runtime::KernelLibrary& library,
                                           const std::vector<dsra::runtime::StreamJob>& streams,
                                           const std::set<std::string>& impls);

/// Seal, unseal and apply the region delta of every (resident, target)
/// context pair a worker switched between in @p jobs, on that worker's
/// slot rectangle; us per seal+unseal+apply. @p pairs receives the number
/// of distinct pairs replayed.
[[nodiscard]] double replay_region_delta_us(
    const dsra::runtime::KernelLibrary& library, const dsra::runtime::FabricPool& pool,
    const std::vector<dsra::runtime::telemetry::JobTrace>& jobs, int& pairs);

/// simulate_timeline on a finished run's own timeline; us per job.
[[nodiscard]] double replay_sim_us_per_job(const std::vector<dsra::runtime::StreamJob>& finished,
                                           const dsra::runtime::RunReport& report,
                                           const dsra::runtime::SchedulerConfig& cfg,
                                           const dsra::runtime::FabricPool& pool);

/// AdmissionController::admit_all on @p fresh, a copy of the generated
/// streams; us per arrival. On return @p fresh holds the streams as
/// admission left them (degraded or shed).
[[nodiscard]] double replay_admission_us(const dsra::runtime::KernelLibrary& library,
                                         const dsra::runtime::FabricPool& pool,
                                         const dsra::runtime::SchedulerConfig& cfg,
                                         std::vector<dsra::runtime::StreamJob>& fresh);

/// Drive @p streams single-threaded through the queue @p cfg selects, as
/// bench_sched_scale does: @p fabric_ids all-capable fabric ids served
/// round-robin, every job completed at once without encoding. Capability-
/// specialised ids would hang a one-thread drive (acquire blocks while
/// only another fabric's work is ready). us per dispatched job.
[[nodiscard]] double replay_queue_us_per_job(const std::vector<dsra::runtime::StreamJob>& streams,
                                             const dsra::runtime::JobQueueConfig& cfg,
                                             int fabric_ids);

}  // namespace servebench

// The serving benchmark's two workloads.
//
// Each workload is one batch: every stream goes into a single
// MultiStreamScheduler::run() call (the runtime has no arrival process),
// so throughput is frames per host second at the stated input size. The
// workload seed is the only source of randomness; the program receives
// nothing but the generated StreamJobs.
//
//  * fleet_churn — thousands of one-macroblock streams at +-1 search, a
//    third drifting on hysteresis trajectories, partial reconfiguration
//    and delta fetch on, context stores smaller than the library, one
//    exclusive 12x8 transform fabric beside one split into two 8x4
//    co-tenant slots, sharded queue. Encode is tens of microseconds per
//    job, so queue, prepare/codec, sim replay and report assembly become
//    a visible share, and the fabric pool misses and evicts instead of
//    hitting.
//  * overload_sla — the serve_streams --sla --overload shape scaled up on
//    the paper's SoC floorplan (one systolic ME fabric, two DA/CORDIC
//    transform fabrics): 64x64 streams whose deadlines and p99 budgets
//    are multiples of the admission cost model's stream cost, arriving at
//    ~3x what the pool serves in the horizon. The only workload where
//    admission, the pilot schedule and the degradation ladder run, and
//    where frames are refused; the lone ME worker is the host bottleneck,
//    so me / video.motion carry most of the drive's host time.
//
// A third shape, a dozen static QCIF streams on the SoC floorplan, is
// left out: its run() is one ME thread's compute, so its host throughput
// tracks a single vCPU's speed and spread too widely between processes on
// a shared host (see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"

namespace servebench {

/// Seed the benchmark runs when none is given, and the held-out seed kept
/// for confirming later claims (never used while tuning a change).
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 977;

struct Workload {
  std::string name;
  std::uint64_t seed = kDefaultSeed;
  dsra::runtime::KernelLibraryConfig library;
  /// Every knob that shapes the run, rendered as text; its fnv1a digest
  /// is what a run stamps beside its seed.
  std::string knobs;
};

/// The workload called @p name, drawn from @p seed. Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// Scheduler configuration of @p w over @p library (context stores are
/// sized against the compiled library). Trace, metrics and health are off.
[[nodiscard]] dsra::runtime::SchedulerConfig scheduler_config(
    const Workload& w, const dsra::runtime::KernelLibrary& library);

/// The workload's streams, generated from its seed. Deterministic: the
/// same workload and seed give byte-identical frames and configs.
[[nodiscard]] std::vector<dsra::runtime::StreamJob> generate_streams(
    const Workload& w, const dsra::runtime::KernelLibrary& library);

}  // namespace servebench

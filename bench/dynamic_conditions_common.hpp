// The PR-3 dynamic-conditions workload, shared by bench_dynamic_conditions
// and bench_partial_reconfig so both measure the same eight streams: two
// draining batteries, two sinusoidal channel fades inside the hysteresis
// band, two sensors hovering on policy boundaries, a tunnel, and a drain
// under a shallow fade. One fabric, a slow configuration port and a
// bounded context store — the regime where every needless switch costs
// real modeled time — keep the dispatch order, and with it the modeled
// makespan, exactly reproducible.
#pragma once

#include <vector>

#include "runtime/scheduler.hpp"
#include "soc/trajectory.hpp"

namespace dsra::bench_dyn {

constexpr int kFramesPerStream = 24;
constexpr double kHysteresisBand = 0.06;

inline std::vector<runtime::StreamJob> build_dynamic_workload(soc::ConditionPolicy policy,
                                                              double band = kHysteresisBand) {
  using runtime::StreamConfig;
  using runtime::StreamJob;
  struct Spec {
    const char* name;
    soc::TrajectoryPtr trajectory;
  };
  const Spec specs[] = {
      // Batteries draining across the 0.6 (cordic1 -> cordic2) and 0.25
      // (-> scc_full) boundaries: two genuine switches under any
      // re-selecting policy, and a stale assignment from mid-stream on
      // under the frozen one.
      {"drain-a", soc::linear_battery_drain(0.95, 0.065, 0.90)},
      {"drain-b", soc::linear_battery_drain(0.80, 0.050, 0.95)},
      // Channels fading sinusoidally through the 0.5 (mixed_rom)
      // boundary with an amplitude *inside* the hysteresis band: naive
      // re-selection flips every half-period, hysteresis never moves.
      {"fade-a", soc::sinusoidal_channel_fade(0.90, 0.50, 0.05, 4.0)},
      {"fade-b", soc::sinusoidal_channel_fade(0.95, 0.50, 0.05, 6.0, 1.0)},
      // Sensors jittering right on a boundary: the worst case for naive
      // per-frame re-selection, the home turf of hysteresis. hover-b sits
      // on the scc_full boundary — the library's largest bitstream, so
      // every needless flip is maximally expensive.
      {"hover-a", soc::jittered_trajectory(
                      soc::constant_trajectory({0.60, 0.90}), 41, 0.05)},
      {"hover-b", soc::jittered_trajectory(
                      soc::constant_trajectory({0.25, 0.95}), 97, 0.04)},
      // Driving into a tunnel and out again.
      {"tunnel", soc::stepped_channel_fade(0.90, {0.90, 0.35, 0.90}, 5)},
      // A draining battery under a shallow channel fade.
      {"drain+fade",
       soc::compose_trajectories(
           soc::linear_battery_drain(0.90, 0.05, 1.0),
           soc::sinusoidal_channel_fade(1.0, 0.52, 0.05, 5.0))},
  };

  std::vector<StreamJob> jobs;
  int id = 0;
  for (const Spec& spec : specs) {
    StreamConfig cfg;
    cfg.name = spec.name;
    cfg.width = 16;
    cfg.height = 16;
    cfg.frame_budget = kFramesPerStream;
    cfg.trajectory = spec.trajectory;
    cfg.condition_policy = policy;
    cfg.hysteresis_band = band;
    cfg.codec.me_range = 4;
    cfg.seed = 2004 + static_cast<std::uint64_t>(id) * 31;
    jobs.push_back(runtime::make_synthetic_job(id, cfg));
    ++id;
  }
  return jobs;
}

/// Serve the workload on one fabric with a 2-bit configuration port and
/// a context store bounded to half the library. One fabric = one worker
/// thread, so the dispatch order — and with it the modeled makespan — is
/// exactly reproducible run to run; acceptance bars are hard numbers.
inline runtime::RunReport run_dynamic_policy(const runtime::KernelLibrary& library,
                                             soc::ConditionPolicy policy,
                                             std::vector<runtime::StreamJob>& jobs_out,
                                             double band = kHysteresisBand,
                                             bool partial_reconfig = false) {
  runtime::SchedulerConfig cfg;
  runtime::FabricConfig fabric;
  fabric.reconfig_port.width_bits = 2;
  fabric.context_capacity_bytes = library.total_bytes() / 2;
  fabric.partial_reconfig = partial_reconfig;
  cfg.fabric_configs = {fabric};
  cfg.queue.policy = runtime::SchedulingPolicy::kAffinityBatched;
  jobs_out = build_dynamic_workload(policy, band);
  return runtime::MultiStreamScheduler(library, cfg).run(jobs_out);
}

}  // namespace dsra::bench_dyn

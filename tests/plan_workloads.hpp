// Workloads the planner pins (test_planner.cpp) and the observation
// artifact pins (test_telemetry.cpp) run: one pinned input each, so both
// suites judge the same schedules.
#pragma once

#include <string>
#include <vector>

#include "runtime/partition.hpp"
#include "runtime/scheduler.hpp"
#include "soc/trajectory.hpp"

namespace dsra::runtime::plan_workloads {

inline const KernelLibrary& library() {
  static const KernelLibrary lib;
  return lib;
}

inline const KernelLibrary& two_geometry_library() {
  static const KernelLibrary lib(KernelLibraryConfig{{kDefaultGeometry, kSmallSccGeometry}});
  return lib;
}

/// Eight streams over four contexts: two drift along a battery drain (so
/// their context changes mid-stream), and SLA deadlines make EDF order
/// matter among equally-old jobs.
inline std::vector<StreamJob> pin_workload() {
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0},  // -> cordic1
      {0.5, 0.9},  // -> cordic2
      {0.9, 0.3},  // -> mixed_rom
      {0.1, 0.9},  // -> scc_full
  };
  std::vector<StreamJob> jobs;
  for (int k = 0; k < 8; ++k) {
    StreamConfig cfg;
    cfg.name = "pin" + std::to_string(k);
    cfg.width = 32;
    cfg.height = 32;
    cfg.frame_budget = 4;
    cfg.condition = conditions[k % 4];
    if (k % 4 == 1) cfg.trajectory = soc::linear_battery_drain(0.6, 0.15, 0.9);
    cfg.codec.me_range = 3;
    cfg.sla.deadline_cycles = k % 3 == 0 ? 0 : static_cast<std::uint64_t>(9 - k) * 1000000;
    cfg.seed = 6100 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

/// One partially reconfigurable 12x8 fabric whose cache holds a third of
/// the library, for pin_workload().
inline SchedulerConfig one_fabric_config(DispatchMode mode, SchedulingPolicy policy) {
  SchedulerConfig cfg;
  FabricConfig fabric;
  fabric.partial_reconfig = true;
  fabric.context_capacity_bytes = library().total_bytes(kDefaultGeometry) / 3;
  cfg.fabric_configs = {fabric};
  cfg.queue.mode = mode;
  cfg.queue.policy = policy;
  cfg.queue.max_affinity_run = 3;
  cfg.queue.aging_threshold = 12;
  return cfg;
}

/// Stage mode on an ME fabric, a 12x8 fabric split into two co-tenant
/// 8x4 slots and an exclusive 12x8 fabric, all with partial reconfig,
/// admission walking its ladder over streams with deadlines. Runs on
/// two_geometry_library().
inline SchedulerConfig tenancy_admission_config() {
  FabricConfig me_fabric;
  me_fabric.capabilities = kCapMotionEstimation;
  FabricConfig whole;
  whole.capabilities = kCapDctTransform;
  whole.partial_reconfig = true;
  FabricConfig tenant = whole;
  tenant.partitions = static_partition_plan(kDefaultGeometry);
  SchedulerConfig cfg;
  cfg.fabric_configs = {me_fabric, tenant, whole};
  cfg.queue.mode = DispatchMode::kStagePipeline;
  cfg.admission.enabled = true;
  return cfg;
}

inline std::vector<StreamJob> tenancy_admission_workload() {
  const soc::RuntimeCondition conditions[] = {
      {0.1, 0.9}, {0.9, 0.3}, {1.0, 1.0}, {0.1, 0.9}, {0.5, 0.9}, {0.9, 0.3}};
  std::vector<StreamJob> jobs;
  for (int k = 0; k < 18; ++k) {
    StreamConfig cfg;
    cfg.name = "det" + std::to_string(k);
    cfg.width = 32;
    cfg.height = 32;
    cfg.frame_budget = 4;
    cfg.condition = conditions[k % 6];
    if (k % 5 == 2) cfg.trajectory = soc::linear_battery_drain(0.6, 0.15, 0.9);
    cfg.codec.me_range = 3;
    cfg.sla.deadline_cycles = k % 4 == 3 ? 0 : 110000 + 16000 * static_cast<std::uint64_t>(k);
    cfg.seed = 6300 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

}  // namespace dsra::runtime::plan_workloads

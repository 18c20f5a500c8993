#include "workloads.hpp"

#include <stdexcept>

#include "runtime/partition.hpp"
#include "soc/trajectory.hpp"

namespace servebench {

using namespace dsra;
using namespace dsra::runtime;

namespace {

// Shapes. Every workload delivers at least 200 frames per run, so the
// p95 latency has at least ten samples beyond it.
constexpr int kFleetStreams = 4000;
constexpr int kFleetFrames = 4;
constexpr int kFleetMeRange = 1;
constexpr int kFleetShards = 4;

constexpr int kOverloadStreams = 108;
constexpr int kOverloadFrames = 10;
constexpr int kOverloadMeRange = 4;
constexpr int kOverloadDeadlineCosts = 18;  ///< deadline, in whole-stream costs
constexpr int kOverloadP99Costs = 12;       ///< p99 budget, in whole-stream costs

/// The six serve_streams callers: a static condition and the trajectory
/// the same phone drifts along.
struct Caller {
  soc::RuntimeCondition condition;
  soc::TrajectoryPtr trajectory;
};

std::vector<Caller> callers() {
  return {
      {{1.00, 0.95}, soc::constant_trajectory({1.00, 0.95})},
      {{0.50, 0.95}, soc::linear_battery_drain(0.50, 0.05, 0.95)},
      {{0.90, 0.30}, soc::stepped_channel_fade(0.90, {0.90, 0.30, 0.85}, 2)},
      {{0.12, 0.80}, soc::linear_battery_drain(0.12, 0.02, 0.80)},
      {{0.60, 0.92}, soc::constant_trajectory({0.60, 0.92})},
      {{0.85, 0.20}, soc::sinusoidal_channel_fade(0.85, 0.45, 0.15, 4.0)},
  };
}

/// splitmix64 finaliser: per-stream seeds that differ in every bit
/// between neighbouring streams and between neighbouring workload seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, int stream, std::uint64_t salt = 0) {
  return mix(mix(seed) ^ (static_cast<std::uint64_t>(stream) << 8) ^ salt);
}

/// The paper's SoC floorplan as serve_streams builds it: one systolic ME
/// fabric beside two DA/CORDIC fabrics with half-library context stores.
std::vector<FabricConfig> soc_floorplan(const KernelLibrary& library) {
  FabricConfig me_fabric, dct_fabric;
  me_fabric.capabilities = kCapMotionEstimation;
  dct_fabric.capabilities = kCapDctTransform;
  dct_fabric.context_capacity_bytes = library.total_bytes(kDefaultGeometry) / 2;
  return {me_fabric, dct_fabric, dct_fabric};
}

std::vector<StreamJob> fleet_streams(const Workload& w) {
  const std::vector<Caller> who = callers();
  std::vector<StreamJob> jobs;
  jobs.reserve(kFleetStreams);
  for (int k = 0; k < kFleetStreams; ++k) {
    // Every third stream drifts; index the drifting ones separately so
    // all six callers drift, not just the ones k % 3 == 0 lands on.
    const bool drifts = k % 3 == 0;
    const Caller& caller = who[static_cast<std::size_t>(drifts ? k / 3 : k) % who.size()];
    StreamConfig cfg;
    cfg.name = "mb-" + std::to_string(k);
    cfg.width = 16;
    cfg.height = 16;
    cfg.frame_budget = kFleetFrames;
    cfg.condition = caller.condition;
    if (drifts) {
      // The caller's trajectory under seeded sensor jitter, re-selected
      // per frame through a hysteresis band.
      cfg.trajectory =
          soc::jittered_trajectory(caller.trajectory, stream_seed(w.seed, k, 0x7a), 0.05);
      cfg.condition_policy = soc::ConditionPolicy::kHysteresis;
      cfg.hysteresis_band = 0.06;
    }
    cfg.codec.me_range = kFleetMeRange;
    cfg.seed = stream_seed(w.seed, k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

std::vector<StreamJob> overload_streams(const Workload& w, const KernelLibrary& library) {
  const std::vector<Caller> who = callers();
  // Whole-stream cost of one arrival in modeled cycles: the admission
  // cost model is content-independent and exact, so the SLAs are
  // multiples of real demand.
  StreamConfig probe_cfg;
  probe_cfg.width = 64;
  probe_cfg.height = 64;
  probe_cfg.frame_budget = kOverloadFrames;
  probe_cfg.condition = who[0].condition;
  probe_cfg.codec.me_range = kOverloadMeRange;
  const StreamJob probe_job = make_synthetic_job(0, probe_cfg);
  const FabricPool probe_pool(1, library);
  const AdmissionController probe(library, probe_pool, me::SystolicParams{});
  std::uint64_t stream_cost = 0;
  for (int f = 0; f < kOverloadFrames; ++f) stream_cost += probe.frame_cycles(probe_job, f);

  std::vector<StreamJob> jobs;
  for (int k = 0; k < kOverloadStreams; ++k) {
    StreamConfig cfg;
    cfg.name = "sla-" + std::to_string(k);
    cfg.width = 64;
    cfg.height = 64;
    cfg.frame_budget = kOverloadFrames;
    cfg.condition = who[static_cast<std::size_t>(k) % who.size()].condition;
    cfg.codec.me_range = kOverloadMeRange;
    cfg.seed = stream_seed(w.seed, k);
    cfg.sla.deadline_cycles = kOverloadDeadlineCosts * stream_cost;
    cfg.sla.p99_budget_cycles = kOverloadP99Costs * stream_cost;
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "fleet_churn") {
    w.library.geometries = {kDefaultGeometry, kSmallSccGeometry};
    w.knobs = "streams=" + std::to_string(kFleetStreams) + ";frames=" +
              std::to_string(kFleetFrames) + ";frame=16x16;me_range=" +
              std::to_string(kFleetMeRange) +
              ";conditions=serve_streams6;drift=1/3 hysteresis 0.06 jitter 0.05;"
              "pool=me+dct12x8+dct12x8/2x8x4;store=lib/2;partial=1;delta_fetch=1;"
              "mode=stage;policy=affinity;shards=" +
              std::to_string(kFleetShards);
  } else if (name == "overload_sla") {
    w.knobs = "streams=" + std::to_string(kOverloadStreams) + ";frames=" +
              std::to_string(kOverloadFrames) + ";frame=64x64;me_range=" +
              std::to_string(kOverloadMeRange) +
              ";conditions=serve_streams6;static;deadline=" +
              std::to_string(kOverloadDeadlineCosts) + "x;p99=" +
              std::to_string(kOverloadP99Costs) +
              "x;pool=me+dct+dct;store=lib/2;mode=stage;policy=affinity;shards=1;"
              "admission=1";
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

SchedulerConfig scheduler_config(const Workload& w, const KernelLibrary& library) {
  SchedulerConfig cfg;
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.mode = DispatchMode::kStagePipeline;
  cfg.fabric_configs = soc_floorplan(library);
  if (w.name == "fleet_churn") {
    for (FabricConfig& f : cfg.fabric_configs) {
      f.partial_reconfig = true;
      f.delta_fetch = true;
    }
    FabricConfig& tenant = cfg.fabric_configs.back();
    tenant.partitions = static_partition_plan(tenant.geometry);
    cfg.queue.shards = kFleetShards;
  } else if (w.name == "overload_sla") {
    cfg.admission.enabled = true;
  }
  return cfg;
}

std::vector<StreamJob> generate_streams(const Workload& w, const KernelLibrary& library) {
  if (w.name == "fleet_churn") return fleet_streams(w);
  return overload_streams(w, library);
}

}  // namespace servebench

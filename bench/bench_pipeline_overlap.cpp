// Frame-level pipelining across kernel fabrics.
//
// The paper's SoC hosts the video kernels on separate domain-specific
// arrays: a systolic ME array and a DA/CORDIC transform array. The PR-1
// runtime dispatched each frame as one monolithic job, so on that
// floorplan only the DCT-capable fabric ever worked — motion estimation
// ran inline on its worker and the ME silicon idled. This bench measures
// what the stage-split pipeline reclaims: on a pool of one ME-only and
// one DCT-only fabric, frame k+1's ME overlaps frame k's DCT/quant and
// independent streams overlap across the two kernels.
//
// Three runs over the same workload:
//   A  monolithic frame jobs, 1 ME + 1 DCT fabric  (status quo: ME idles)
//   B  stage pipeline,        1 ME + 1 DCT fabric  (the paper's mapping)
//   C  monolithic frame jobs, 2 fully-capable fabrics (duplicated silicon)
//
// Throughput is compared in simulated array cycles (the fabrics are
// simulated hardware; host wall time depends on the machine's core
// count). Acceptance bar: B >= 1.3x the throughput of A.
#include <cstdio>

#include "bench_common.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_schedule.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

std::vector<StreamJob> build_workload() {
  struct Spec {
    const char* name;
    int size;
    soc::RuntimeCondition condition;
  };
  const Spec specs[] = {
      {"full-battery-a", 64, {1.00, 0.95}}, {"half-battery-a", 64, {0.50, 0.95}},
      {"tunnel-a", 64, {0.90, 0.30}},       {"low-battery-a", 64, {0.10, 0.90}},
      {"full-battery-b", 48, {0.95, 0.90}}, {"tunnel-b", 48, {0.80, 0.25}},
  };
  std::vector<StreamJob> jobs;
  int id = 0;
  for (const Spec& spec : specs) {
    StreamConfig cfg;
    cfg.name = spec.name;
    cfg.width = spec.size;
    cfg.height = spec.size;
    cfg.frame_budget = 10;
    cfg.condition = spec.condition;
    cfg.codec.me_range = 8;
    cfg.seed = 2004 + static_cast<std::uint64_t>(id) * 31;
    jobs.push_back(make_synthetic_job(id, cfg));
    ++id;
  }
  return jobs;
}

RunReport run(const KernelLibrary& library, DispatchMode mode,
              std::vector<FabricConfig> fabrics) {
  SchedulerConfig cfg;
  cfg.fabric_configs = std::move(fabrics);
  cfg.queue.mode = mode;
  auto jobs = build_workload();
  return MultiStreamScheduler(library, cfg).run(jobs);
}

FabricConfig fabric_with(unsigned capabilities, std::size_t capacity) {
  FabricConfig cfg;
  cfg.capabilities = capabilities;
  cfg.context_capacity_bytes = capacity;
  return cfg;
}

}  // namespace

int main() {
  BenchJson json("pipeline_overlap");
  std::printf("compiling the kernel library (6 DCT implementations + ME context)...\n");
  const KernelLibrary library;
  const std::size_t capacity = library.total_bytes() / 2;

  const FabricConfig me_fabric = fabric_with(kCapMotionEstimation, capacity);
  const FabricConfig dct_fabric = fabric_with(kCapDctTransform, capacity);
  const FabricConfig full_fabric = fabric_with(kCapAllKernels, capacity);

  const RunReport mono =
      run(library, DispatchMode::kMonolithicFrames, {me_fabric, dct_fabric});
  const RunReport pipe =
      run(library, DispatchMode::kStagePipeline, {me_fabric, dct_fabric});
  const RunReport dup =
      run(library, DispatchMode::kMonolithicFrames, {full_fabric, full_fabric});

  mode_compare_table(mono, pipe).print();
  std::printf("\nreference: monolithic on 2 fully-capable fabrics (duplicated silicon): "
              "%llu sim cycles\n",
              static_cast<unsigned long long>(dup.sim_makespan_cycles));

  const double speedup = pipe.sim_makespan_cycles > 0
                             ? static_cast<double>(mono.sim_makespan_cycles) /
                                   static_cast<double>(pipe.sim_makespan_cycles)
                             : 0.0;
  std::printf("\nstage pipeline on 1 ME + 1 DCT fabric: %.2fx the monolithic throughput "
              "(acceptance bar 1.30x)\n",
              speedup);
  std::printf("the same silicon, the paper's kernel split: the ME array stops idling.\n");

  bench_common::stamp_reproducibility(
      json, 2004,
      "streams=6;frames=10;sizes=4x64+2x48;me_range=8;seed_stride=31");
  json.metric("frames", static_cast<double>(pipe.total_frames));
  json.metric("mono_sim_makespan_cycles", static_cast<double>(mono.sim_makespan_cycles));
  json.metric("pipe_sim_makespan_cycles", static_cast<double>(pipe.sim_makespan_cycles));
  json.metric("dup_sim_makespan_cycles", static_cast<double>(dup.sim_makespan_cycles));
  json.metric("pipe_sim_utilization", pipe.sim_utilization);
  json.bar("pipeline_vs_monolithic_throughput", speedup, ">=", 1.3);
  return bench_common::finish(json);
}

// Heterogeneous fabric pools: per-area throughput of sizing fabrics to
// their kernels.
//
// The paper's SoC hosts domain-specific arrays of different sizes — the
// small single-coefficient-correlation DCT mappings need far fewer
// clusters than the full DA/CORDIC array — and Kim et al.'s resource-
// sharing results say the area/throughput win comes from sizing fabrics
// to their kernels and routing by placement feasibility. This bench
// measures exactly that trade on a mixed low/high-condition workload:
//
//  * hetero — one full-size 12x8 DA fabric plus two small 8x4 fabrics
//             (the scc family places on them; cordic1/cordic2 do not),
//             160 cluster sites total. Feasibility-aware dispatch pins
//             the cordic streams to the full-size array and batches the
//             low-condition streams on the small ones.
//  * homog  — three full-size 12x8 fabrics, 288 cluster sites: the same
//             engine count with every fabric able to host everything.
//
// Throughput is modeled array cycles (the scheduler's deterministic
// plan), normalized per cluster site. Acceptance: the heterogeneous
// pool sustains >= 1.2x modeled-cycle throughput per unit array area,
// with bit-exact encoded output across pool shapes — feasibility
// filtering may only change where a job runs, never what it computes.
// A third run enables partial reconfiguration + delta-aware context
// fetch on the heterogeneous pool to show the PR 4 follow-on shrinking
// bus traffic on the same workload.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/report.hpp"
#include "runtime/scheduler.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

std::vector<StreamJob> mixed_workload() {
  // Three high-condition streams (cordic1 / cordic2: full-size array
  // only) and six low/noisy streams (scc_full / mixed_rom: place on the
  // small arrays) — the mix a mobile basestation would actually see.
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0},  // cordic1
      {0.1, 0.9},  // scc_full
      {0.9, 0.3},  // mixed_rom
      {0.5, 0.9},  // cordic2
      {0.1, 0.9},  // scc_full
      {0.9, 0.3},  // mixed_rom
      {1.0, 1.0},  // cordic1
      {0.1, 0.9},  // scc_full
      {0.9, 0.3},  // mixed_rom
  };
  std::vector<StreamJob> jobs;
  for (int k = 0; k < 9; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = 32;
    cfg.height = 32;
    cfg.frame_budget = 6;
    cfg.condition = conditions[k];
    cfg.codec.me_range = 4;
    cfg.seed = 7100 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

RunReport run_pool(const KernelLibrary& library, const std::vector<FabricConfig>& fabrics,
                   std::vector<StreamJob>& jobs) {
  SchedulerConfig cfg;
  cfg.fabric_configs = fabrics;
  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.max_affinity_run = 8;
  cfg.queue.aging_threshold = 24;
  jobs = mixed_workload();
  return MultiStreamScheduler(library, cfg).run(jobs);
}

/// Frames per million modeled array cycles, per cluster site.
double per_area_throughput(const RunReport& report) {
  if (report.sim_makespan_cycles == 0 || report.total_tiles == 0) return 0.0;
  const double frames_per_mcycle = 1e6 * static_cast<double>(report.total_frames) /
                                   static_cast<double>(report.sim_makespan_cycles);
  return frames_per_mcycle / static_cast<double>(report.total_tiles);
}

}  // namespace

int main() {
  BenchJson json("hetero_pool");
  std::printf("compiling the kernel library for geometries 12x8 and 8x4...\n");
  const KernelLibrary library(KernelLibraryConfig{{kDefaultGeometry, kSmallSccGeometry}});

  FabricConfig large;
  large.geometry = kDefaultGeometry;
  FabricConfig small;
  small.geometry = kSmallSccGeometry;

  std::vector<StreamJob> hetero_jobs, homog_jobs, delta_jobs;
  const RunReport hetero = run_pool(library, {large, small, small}, hetero_jobs);
  const RunReport homog = run_pool(library, {large, large, large}, homog_jobs);

  FabricConfig large_delta = large;
  large_delta.partial_reconfig = true;
  large_delta.delta_fetch = true;
  FabricConfig small_delta = small;
  small_delta.partial_reconfig = true;
  small_delta.delta_fetch = true;
  const RunReport delta =
      run_pool(library, {large_delta, small_delta, small_delta}, delta_jobs);

  geometry_table(hetero).print();
  std::printf("\n");

  ReportTable table("Heterogeneous (12x8 + 2x 8x4) vs homogeneous (3x 12x8) pool");
  table.set_header({"metric", "hetero (160 sites)", "homog (288 sites)"});
  const auto row_u64 = [&](const std::string& name, std::uint64_t a, std::uint64_t b) {
    bench_common::add_u64_row(table, name, a, b);
  };
  row_u64("frames", hetero.total_frames, homog.total_frames);
  row_u64("array area (cluster sites)", static_cast<std::uint64_t>(hetero.total_tiles),
          static_cast<std::uint64_t>(homog.total_tiles));
  row_u64("sim makespan (cycles)", hetero.sim_makespan_cycles, homog.sim_makespan_cycles);
  row_u64("bitstream switches", static_cast<std::uint64_t>(hetero.total_switches),
          static_cast<std::uint64_t>(homog.total_switches));
  row_u64("reconfig cycles", hetero.total_reconfig_cycles, homog.total_reconfig_cycles);
  row_u64("placement rejections", hetero.placement_rejections, homog.placement_rejections);
  table.add_row({"frames / Mcycle / site", format_double(per_area_throughput(hetero), 4),
                 format_double(per_area_throughput(homog), 4)});
  table.print();

  const double throughput_ratio =
      hetero.sim_makespan_cycles > 0
          ? static_cast<double>(homog.sim_makespan_cycles) /
                static_cast<double>(hetero.sim_makespan_cycles)
          : 0.0;
  const double per_area_ratio = per_area_throughput(homog) > 0.0
                                    ? per_area_throughput(hetero) / per_area_throughput(homog)
                                    : 0.0;
  const int mismatches = bench_common::count_output_mismatches(hetero_jobs, homog_jobs);
  const int delta_mismatches = bench_common::count_output_mismatches(hetero_jobs, delta_jobs);

  std::printf("\nfeasibility-aware dispatch over the sized-to-kernel pool: %.2fx "
              "throughput per cluster site vs the equal-engine homogeneous pool "
              "(bar: >= 1.20x) at %.2fx absolute throughput\n",
              per_area_ratio, throughput_ratio);
  std::printf("encoded output mismatches across pool shapes: %d (bar: 0 — geometry "
              "only moves jobs, never changes the encode)\n", mismatches);
  std::printf("delta-aware context fetch on the same pool: %llu delta-only fetches, "
              "%llu bus bytes saved (%d output mismatches)\n",
              static_cast<unsigned long long>(delta.cache.delta_fetches),
              static_cast<unsigned long long>(delta.cache.bytes_saved), delta_mismatches);

  bench_common::stamp_reproducibility(
      json, 7100, "streams=9;frames=6;frame=32x32;me_range=4;mix=3cordic+6scc");
  json.metric("frames", static_cast<double>(hetero.total_frames));
  json.metric("hetero_tiles", static_cast<double>(hetero.total_tiles));
  json.metric("homog_tiles", static_cast<double>(homog.total_tiles));
  json.metric("hetero_sim_makespan_cycles", static_cast<double>(hetero.sim_makespan_cycles));
  json.metric("homog_sim_makespan_cycles", static_cast<double>(homog.sim_makespan_cycles));
  json.metric("hetero_per_area_throughput", per_area_throughput(hetero));
  json.metric("homog_per_area_throughput", per_area_throughput(homog));
  json.metric("absolute_throughput_ratio", throughput_ratio);
  json.metric("placement_rejections", static_cast<double>(hetero.placement_rejections));
  json.metric("delta_fetches", static_cast<double>(delta.cache.delta_fetches));
  json.metric("delta_bus_bytes_saved", static_cast<double>(delta.cache.bytes_saved));
  json.bar("per_area_throughput_ratio", per_area_ratio, ">=", 1.2);
  json.bar("output_mismatches", static_cast<double>(mismatches), "<=", 0.0);
  json.bar("delta_run_output_mismatches", static_cast<double>(delta_mismatches), "<=", 0.0);
  json.bar("feasibility_steered_dispatch", static_cast<double>(hetero.placement_rejections),
           ">", 0.0);
  json.bar("delta_fetch_saves_bus_bytes", static_cast<double>(delta.cache.bytes_saved), ">",
           0.0);
  return bench_common::finish(json);
}

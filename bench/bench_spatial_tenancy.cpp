// Spatial multi-tenancy: co-tenant partitions double effective pool
// capacity.
//
// The paper's small single-coefficient-correlation DCT mappings occupy a
// fraction of the full DA/CORDIC array; a low-condition workload run on
// whole 12x8 fabrics leaves most of each fabric's clusters dark. This
// bench partitions each physical 12x8 fabric into two 8x4-class slots
// (static_partition_plan) and lets two contexts encode side by side:
//
//  * exclusive — two whole 12x8 fabrics, one context resident each
//                (2 scheduler-visible slots on 192 cluster sites).
//  * tenancy   — the same two physical fabrics split 2x 8x4 each
//                (4 slots on the same 192 sites). Co-tenant slots share
//                the physical configuration port: their context loads
//                serialize, charged by the plan as port contention.
//
// Throughput is modeled array cycles (the scheduler's deterministic
// plan) per *physical* cluster site — partitioning never adds silicon,
// so both runs divide by the same 192 sites and the per-site ratio is
// the makespan ratio. Acceptance: >= 1.5x per-site modeled-cycle
// throughput, bit-exact encoded output vs the exclusive run (placement
// may only move jobs, never change the encode), and nonzero modeled
// port contention (the sharing is charged, not assumed free).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/report.hpp"
#include "runtime/partition.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

constexpr std::uint64_t kSeedBase = 8200;
// Enough concurrent streams that four slots always have ready work —
// frame k of a stream is serial on frame k-1, so parallelism is bounded
// by live streams, not frames.
constexpr int kStreams = 16;
constexpr int kFramesPerStream = 6;

std::vector<StreamJob> scc_workload() {
  // All-low/noisy conditions: every stream selects a context from the
  // scc family, which places on the 8x4 partitions — the workload whose
  // whole-fabric residency wastes the most silicon.
  std::vector<StreamJob> jobs;
  for (int k = 0; k < kStreams; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = 32;
    cfg.height = 32;
    cfg.frame_budget = kFramesPerStream;
    cfg.condition = k % 2 == 0 ? soc::RuntimeCondition{0.1, 0.9}   // scc_full
                               : soc::RuntimeCondition{0.9, 0.3};  // mixed_rom
    cfg.codec.me_range = 4;
    cfg.seed = kSeedBase + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

RunReport run_pool(const KernelLibrary& library, const std::vector<FabricConfig>& fabrics,
                   std::vector<StreamJob>& jobs,
                   runtime::telemetry::MetricsRegistry* metrics = nullptr) {
  SchedulerConfig cfg;
  cfg.fabric_configs = fabrics;
  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  // Two contexts over four slots: a long affinity run lets each slot pin
  // its context after the cold load, so the shared-port serialization
  // the model charges comes from genuine co-tenant collisions, not from
  // anti-starvation churn.
  cfg.queue.max_affinity_run = 64;
  cfg.queue.aging_threshold = 96;
  runtime::telemetry::TraceRecorder recorder;
  if (metrics != nullptr) cfg.trace = &recorder;
  jobs = scc_workload();
  RunReport report = MultiStreamScheduler(library, cfg).run(jobs);
  if (metrics != nullptr) runtime::telemetry::fill_metrics(report, jobs, *metrics);
  return report;
}

/// Frames per million modeled array cycles per *physical* cluster site.
/// Both pool shapes occupy the same silicon, so the denominator is the
/// physical tile count, not the sum of slot geometries.
double per_site_throughput(const RunReport& report, int physical_tiles) {
  if (report.sim_makespan_cycles == 0 || physical_tiles == 0) return 0.0;
  const double frames_per_mcycle = 1e6 * static_cast<double>(report.total_frames) /
                                   static_cast<double>(report.sim_makespan_cycles);
  return frames_per_mcycle / static_cast<double>(physical_tiles);
}

}  // namespace

int main() {
  BenchJson json("spatial_tenancy");
  std::printf("compiling the kernel library for geometries 12x8 and 8x4...\n");
  const KernelLibrary library(KernelLibraryConfig{{kDefaultGeometry, kSmallSccGeometry}});

  FabricConfig fabric;
  fabric.geometry = kDefaultGeometry;
  fabric.partial_reconfig = true;
  fabric.delta_fetch = true;

  FabricConfig tenant = fabric;
  tenant.partitions = static_partition_plan(fabric.geometry);

  const int physical_tiles = 2 * kDefaultGeometry.tiles();

  std::vector<StreamJob> exclusive_jobs, tenancy_jobs;
  runtime::telemetry::MetricsRegistry metrics;
  const RunReport exclusive = run_pool(library, {fabric, fabric}, exclusive_jobs);
  const RunReport tenancy = run_pool(library, {tenant, tenant}, tenancy_jobs, &metrics);

  partition_table(tenancy).print();
  std::printf("\n");

  ReportTable table("Co-tenant (2x [2x 8x4]) vs exclusive (2x 12x8) occupancy");
  table.set_header({"metric", "exclusive (2 slots)", "tenancy (4 slots)"});
  const auto row_u64 = [&](const std::string& name, std::uint64_t a, std::uint64_t b) {
    bench_common::add_u64_row(table, name, a, b);
  };
  row_u64("frames", exclusive.total_frames, tenancy.total_frames);
  row_u64("physical fabrics", static_cast<std::uint64_t>(exclusive.physical_fabrics),
          static_cast<std::uint64_t>(tenancy.physical_fabrics));
  row_u64("scheduler slots", static_cast<std::uint64_t>(exclusive.fabrics),
          static_cast<std::uint64_t>(tenancy.fabrics));
  row_u64("physical sites", static_cast<std::uint64_t>(physical_tiles),
          static_cast<std::uint64_t>(physical_tiles));
  row_u64("sim makespan (cycles)", exclusive.sim_makespan_cycles,
          tenancy.sim_makespan_cycles);
  row_u64("bitstream switches", static_cast<std::uint64_t>(exclusive.total_switches),
          static_cast<std::uint64_t>(tenancy.total_switches));
  row_u64("port contention (cycles)", exclusive.port_contention_cycles,
          tenancy.port_contention_cycles);
  table.add_row({"frames / Mcycle / site",
                 format_double(per_site_throughput(exclusive, physical_tiles), 4),
                 format_double(per_site_throughput(tenancy, physical_tiles), 4)});
  table.print();

  const double per_site_speedup =
      tenancy.sim_makespan_cycles > 0
          ? static_cast<double>(exclusive.sim_makespan_cycles) /
                static_cast<double>(tenancy.sim_makespan_cycles)
          : 0.0;
  const int mismatches =
      bench_common::count_output_mismatches(exclusive_jobs, tenancy_jobs);

  std::printf("\nco-tenant partitions on the same silicon: %.2fx per-site "
              "modeled-cycle throughput (bar: >= 1.50x), %llu cycles of modeled "
              "config-port contention charged between co-tenants\n",
              per_site_speedup,
              static_cast<unsigned long long>(tenancy.port_contention_cycles));
  std::printf("encoded output mismatches vs the exclusive pool: %d (bar: 0 — "
              "a partition only moves jobs, never changes the encode)\n", mismatches);

  const std::string config_text =
      "streams=" + std::to_string(kStreams) + ";frames=" +
      std::to_string(kFramesPerStream) + ";frame=32x32;me_range=4;pool=2x" +
      to_string(kDefaultGeometry) + ";plan=2x" + to_string(kSmallSccGeometry) +
      ";partial_reconfig=1;delta_fetch=1;policy=affinity_batched";
  bench_common::stamp_reproducibility(json, kSeedBase, config_text);
  json.metric("frames", static_cast<double>(tenancy.total_frames));
  json.metric("physical_tiles", static_cast<double>(physical_tiles));
  json.metric("exclusive_slots", static_cast<double>(exclusive.fabrics));
  json.metric("tenancy_slots", static_cast<double>(tenancy.fabrics));
  json.metric("exclusive_sim_makespan_cycles",
              static_cast<double>(exclusive.sim_makespan_cycles));
  json.metric("tenancy_sim_makespan_cycles",
              static_cast<double>(tenancy.sim_makespan_cycles));
  json.metric("exclusive_per_site_throughput",
              per_site_throughput(exclusive, physical_tiles));
  json.metric("tenancy_per_site_throughput",
              per_site_throughput(tenancy, physical_tiles));
  json.metric("port_contention_cycles",
              static_cast<double>(tenancy.port_contention_cycles));
  json.metric("region_deltas",
              static_cast<double>(tenancy.partial_reloads));
  json.bar("per_site_speedup", per_site_speedup, ">=", 1.5);
  json.bar("output_mismatches", static_cast<double>(mismatches), "<=", 0.0);
  json.bar("port_contention_charged",
           static_cast<double>(tenancy.port_contention_cycles), ">", 0.0);

  bench_common::write_metrics_artifact("spatial_tenancy", metrics,
                                       tenancy.wall_seconds);
  return bench_common::finish(json);
}

// Partial reconfiguration: cluster-frame deltas vs full bitstream reloads.
//
// PR 3's hysteresis band exists to ration a cost: every mid-stream
// bitstream switch reloads the full stream through the configuration
// port. But the library's contexts are frame-addressable (one frame per
// occupied cluster), and adjacent implementations share most of their
// cluster programming — scc_full's ROMs are da_basic's LUTs, the CORDIC
// variants differ in a few dozen small frames — so rewriting only the
// frames that differ makes a switch dramatically cheaper.
//
// This bench re-runs the PR 3 dynamic-conditions workload (eight
// draining/fading/hovering streams, one fabric, a slow 2-bit port) three
// times:
//
//  * full    — hysteresis band 0.06, every switch reloads the full
//              bitstream (the PR 3 status quo).
//  * partial — same workload and band, switches rewrite only the frame
//              delta against the fabric's resident configuration.
//  * narrow  — partial reconfiguration with the band narrowed to 0.02:
//              once switches are cheap the policy can track conditions
//              more tightly, trading (cheap) switches for fresher impl
//              choices and fewer stale frames.
//
// Acceptance: partial cuts modeled configuration-port cycles >= 2x on
// the identical switch sequence with bit-exact encoded output, and the
// narrowed band runs fewer stale frames than the wide band without
// paying more port cycles than the full-reload status quo.
#include <cstdio>

#include "bench_common.hpp"
#include "dynamic_conditions_common.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

constexpr double kNarrowBand = 0.02;

}  // namespace

int main() {
  BenchJson json("partial_reconfig");
  std::printf("compiling the kernel library (6 DCT implementations + ME context)...\n");
  const KernelLibrary library;

  std::vector<StreamJob> full_jobs, part_jobs, narrow_jobs;
  const RunReport full = bench_dyn::run_dynamic_policy(
      library, soc::ConditionPolicy::kHysteresis, full_jobs, bench_dyn::kHysteresisBand,
      /*partial_reconfig=*/false);
  const RunReport part = bench_dyn::run_dynamic_policy(
      library, soc::ConditionPolicy::kHysteresis, part_jobs, bench_dyn::kHysteresisBand,
      /*partial_reconfig=*/true);
  const RunReport narrow = bench_dyn::run_dynamic_policy(
      library, soc::ConditionPolicy::kHysteresis, narrow_jobs, kNarrowBand,
      /*partial_reconfig=*/true);

  reconfig_table(part).print();
  std::printf("\n");

  ReportTable table("Full reload vs partial reconfiguration (PR 3 dynamic workload)");
  table.set_header({"metric", "full (band 0.06)", "partial (band 0.06)",
                    "partial (band 0.02)"});
  const auto row_u64 = [&](const std::string& name, std::uint64_t a, std::uint64_t b,
                           std::uint64_t c) {
    bench_common::add_u64_row(table, name, a, b, c);
  };
  row_u64("frames", full.total_frames, part.total_frames, narrow.total_frames);
  row_u64("bitstream switches", static_cast<std::uint64_t>(full.total_switches),
          static_cast<std::uint64_t>(part.total_switches),
          static_cast<std::uint64_t>(narrow.total_switches));
  row_u64("partial reloads", full.partial_reloads, part.partial_reloads,
          narrow.partial_reloads);
  row_u64("full reloads", full.full_reloads, part.full_reloads, narrow.full_reloads);
  row_u64("cluster frames rewritten", full.frames_rewritten, part.frames_rewritten,
          narrow.frames_rewritten);
  row_u64("delta bytes shifted", full.delta_bytes, part.delta_bytes, narrow.delta_bytes);
  row_u64("stale frames", full.stale_frames, part.stale_frames, narrow.stale_frames);
  row_u64("reconfig cycles", full.total_reconfig_cycles, part.total_reconfig_cycles,
          narrow.total_reconfig_cycles);
  row_u64("sim makespan (cycles)", full.sim_makespan_cycles, part.sim_makespan_cycles,
          narrow.sim_makespan_cycles);
  table.print();

  const double reduction =
      part.total_reconfig_cycles > 0
          ? static_cast<double>(full.total_reconfig_cycles) /
                static_cast<double>(part.total_reconfig_cycles)
          : 0.0;
  const double makespan_speedup =
      part.sim_makespan_cycles > 0
          ? static_cast<double>(full.sim_makespan_cycles) /
                static_cast<double>(part.sim_makespan_cycles)
          : 0.0;
  const int mismatches = bench_common::count_output_mismatches(full_jobs, part_jobs);

  std::printf("\npartial reconfiguration: %.2fx fewer modeled configuration-port cycles "
              "than full reload (bar: >= 2.00x), %.2fx makespan speedup\n",
              reduction, makespan_speedup);
  std::printf("encoded output mismatches vs the full-reload run: %d (bar: 0 — switches "
              "only change what the port shifts, never the encode)\n", mismatches);
  std::printf("narrowed band 0.06 -> 0.02: stale frames %llu -> %llu, port cycles still "
              "%.2fx below the full-reload status quo\n",
              static_cast<unsigned long long>(full.stale_frames),
              static_cast<unsigned long long>(narrow.stale_frames),
              narrow.total_reconfig_cycles > 0
                  ? static_cast<double>(full.total_reconfig_cycles) /
                        static_cast<double>(narrow.total_reconfig_cycles)
                  : 0.0);
  std::printf("cheap switches change the policy trade: hysteresis no longer has to hold "
              "a stale implementation just to keep the port quiet.\n");

  bench_common::stamp_reproducibility(
      json, 2004,
      "streams=8;frames=24;frame=16x16;me_range=4;trajectories=1;seed_stride=31");
  json.metric("frames", static_cast<double>(part.total_frames));
  json.metric("full_reconfig_cycles", static_cast<double>(full.total_reconfig_cycles));
  json.metric("partial_reconfig_cycles", static_cast<double>(part.total_reconfig_cycles));
  json.metric("narrow_reconfig_cycles", static_cast<double>(narrow.total_reconfig_cycles));
  json.metric("partial_reloads", static_cast<double>(part.partial_reloads));
  json.metric("full_reloads_in_partial_run", static_cast<double>(part.full_reloads));
  json.metric("frames_rewritten", static_cast<double>(part.frames_rewritten));
  json.metric("delta_bytes", static_cast<double>(part.delta_bytes));
  json.metric("full_sim_makespan_cycles", static_cast<double>(full.sim_makespan_cycles));
  json.metric("partial_sim_makespan_cycles",
              static_cast<double>(part.sim_makespan_cycles));
  json.metric("wide_band_stale_frames", static_cast<double>(full.stale_frames));
  json.metric("narrow_band_stale_frames", static_cast<double>(narrow.stale_frames));
  json.bar("port_cycle_reduction", reduction, ">=", 2.0);
  json.bar("output_mismatches", static_cast<double>(mismatches), "<=", 0.0);
  json.bar("narrow_band_fewer_stale_frames",
           static_cast<double>(full.stale_frames) -
               static_cast<double>(narrow.stale_frames),
           ">", 0.0);
  json.bar("narrow_band_cycles_vs_full_reload",
           static_cast<double>(narrow.total_reconfig_cycles), "<=",
           static_cast<double>(full.total_reconfig_cycles));
  return bench_common::finish(json);
}

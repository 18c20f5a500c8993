// Dynamic per-stream conditions: frozen vs naive vs hysteresis.
//
// The paper's closing argument is that runtime constraints — battery
// level, channel quality — pick which implementation an array runs. This
// bench makes those constraints *move*: eight concurrent streams whose
// batteries drain, channels fade sinusoidally or step into a tunnel, and
// sensors jitter right on a policy boundary (the shared workload in
// dynamic_conditions_common.hpp). The same workload is served three
// times, varying only how a stream turns its condition trajectory into
// per-frame bitstream choices:
//
//  * frozen      — evaluate the policy once at stream start (the legacy
//                  behavior). Cheap, but the assignment goes stale: a
//                  large share of frames run an impl the policy would
//                  not pick for their actual condition.
//  * per-frame   — re-select nominally every frame. Always right, but a
//                  condition hovering near a boundary thrashes the
//                  configuration port every frame.
//  * hysteresis  — re-select with a band around each boundary, plus the
//                  queue re-bucketing streams onto their new context.
//                  Right where it matters, and the port stays quiet.
//
// Throughput is compared in modeled array cycles (the sim schedule now
// charges context-fetch + switch cycles into the makespan), so the
// benefit is hardware-meaningful, not host-load noise. Acceptance:
// hysteresis >= 1.2x the modeled throughput of per-frame re-selection,
// and frozen stale on >= 25% of frames.
#include <cstdio>

#include "bench_common.hpp"
#include "dynamic_conditions_common.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

double throughput_kcycles(const RunReport& r) {
  return r.sim_makespan_cycles > 0
             ? static_cast<double>(r.total_frames) * 1000.0 /
                   static_cast<double>(r.sim_makespan_cycles)
             : 0.0;
}

}  // namespace

int main() {
  BenchJson json("dynamic_conditions");
  std::printf("compiling the kernel library (6 DCT implementations + ME context)...\n");
  const KernelLibrary library;

  std::vector<StreamJob> frozen_jobs, naive_jobs, hyst_jobs;
  const RunReport frozen =
      bench_dyn::run_dynamic_policy(library, soc::ConditionPolicy::kFrozen, frozen_jobs);
  const RunReport naive =
      bench_dyn::run_dynamic_policy(library, soc::ConditionPolicy::kPerFrame, naive_jobs);
  const RunReport hyst =
      bench_dyn::run_dynamic_policy(library, soc::ConditionPolicy::kHysteresis, hyst_jobs);

  condition_table(hyst).print();
  std::printf("\n");

  ReportTable table("Condition policy comparison (8 draining/fading streams, 1 fabric)");
  table.set_header({"metric", "frozen", "per-frame", "hysteresis"});
  const auto row_u64 = [&](const std::string& name, std::uint64_t a, std::uint64_t b,
                           std::uint64_t c) {
    bench_common::add_u64_row(table, name, a, b, c);
  };
  row_u64("frames", frozen.total_frames, naive.total_frames, hyst.total_frames);
  row_u64("condition switches", frozen.condition_switches, naive.condition_switches,
          hyst.condition_switches);
  row_u64("stale frames", frozen.stale_frames, naive.stale_frames, hyst.stale_frames);
  row_u64("bitstream switches", static_cast<std::uint64_t>(frozen.total_switches),
          static_cast<std::uint64_t>(naive.total_switches),
          static_cast<std::uint64_t>(hyst.total_switches));
  row_u64("reconfig cycles", frozen.total_reconfig_cycles, naive.total_reconfig_cycles,
          hyst.total_reconfig_cycles);
  row_u64("context fetch cycles", frozen.total_fetch_cycles, naive.total_fetch_cycles,
          hyst.total_fetch_cycles);
  row_u64("sim makespan (cycles)", frozen.sim_makespan_cycles, naive.sim_makespan_cycles,
          hyst.sim_makespan_cycles);
  table.add_row({"frames per kcycle", format_double(throughput_kcycles(frozen), 3),
                 format_double(throughput_kcycles(naive), 3),
                 format_double(throughput_kcycles(hyst), 3)});
  table.print();

  const double total_frames = static_cast<double>(frozen.total_frames);
  const double stale_fraction =
      total_frames > 0.0 ? static_cast<double>(frozen.stale_frames) / total_frames : 0.0;
  const double speedup =
      hyst.sim_makespan_cycles > 0
          ? static_cast<double>(naive.sim_makespan_cycles) /
                static_cast<double>(hyst.sim_makespan_cycles)
          : 0.0;

  std::printf("\nfrozen assignment runs a stale (wrong-for-condition) impl on %.0f%% "
              "of frames (bar: >= 25%%)\n", 100.0 * stale_fraction);
  std::printf("hysteresis + re-bucketing: %.2fx the modeled-cycle throughput of naive "
              "per-frame re-selection (bar: >= 1.20x)\n", speedup);
  std::printf("frozen is cheap but wrong; per-frame is right but thrashes the port; "
              "hysteresis is right where it matters and keeps the port quiet.\n");

  bench_common::stamp_reproducibility(
      json, 2004,
      "streams=8;frames=24;frame=16x16;me_range=4;trajectories=1;seed_stride=31");
  json.metric("frames", static_cast<double>(hyst.total_frames));
  json.metric("frozen_stale_frames", static_cast<double>(frozen.stale_frames));
  json.metric("naive_switches", static_cast<double>(naive.total_switches));
  json.metric("hysteresis_switches", static_cast<double>(hyst.total_switches));
  json.metric("naive_reconfig_cycles", static_cast<double>(naive.total_reconfig_cycles));
  json.metric("hysteresis_reconfig_cycles",
              static_cast<double>(hyst.total_reconfig_cycles));
  json.metric("naive_sim_makespan_cycles", static_cast<double>(naive.sim_makespan_cycles));
  json.metric("hysteresis_sim_makespan_cycles",
              static_cast<double>(hyst.sim_makespan_cycles));
  json.bar("hysteresis_vs_naive_throughput", speedup, ">=", 1.2);
  json.bar("frozen_stale_fraction", stale_fraction, ">=", 0.25);
  return bench_common::finish(json);
}

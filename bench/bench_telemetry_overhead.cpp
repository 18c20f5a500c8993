// Telemetry overhead: tracing must observe, never perturb.
//
// Runs the hetero-pool workload (9 mixed-condition streams over a
// 12x8 + 2x 8x4 fabric pool) in several rounds. A round runs it back to
// back on fresh copies, alternating telemetry off and telemetry on (span
// tracing + metrics), until its untraced runs have lasted 200 ms: one
// run takes only a few ms. It compares:
//
//  * host wall time: the traced side's mean run time, minimum over
//    rounds, must stay within 10% of the untraced one (long rounds and
//    min-of-N suppress scheduler noise on a loaded host);
//  * modeled array cycles: bit-exact either way — every run on the pool,
//    traced or not, must plan the same makespan to the cycle, because
//    dispatch is planned in modeled time and recording only observes;
//  * encoded outputs: bit-exact on the full pool — the encode chain is
//    fabric-independent, so tracing must not change a single bit;
//  * attribution exactness: every stream's queue + bus + reconfig +
//    compute components sum exactly (integer cycles) to its end-to-end
//    modeled latency;
//  * artifact validity: the exported trace and metrics JSON are written
//    next to BENCH_telemetry_overhead.json for the CI schema validator.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/report.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/telemetry/export.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

std::vector<StreamJob> mixed_workload() {
  // Same mix as bench_hetero_pool: three cordic streams pinned to the
  // full-size array by placement, six scc/mixed_rom streams the small
  // arrays can host.
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0}, {0.1, 0.9}, {0.9, 0.3}, {0.5, 0.9}, {0.1, 0.9},
      {0.9, 0.3}, {1.0, 1.0}, {0.1, 0.9}, {0.9, 0.3},
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

SchedulerConfig pool_config(const std::vector<FabricConfig>& fabrics) {
  SchedulerConfig cfg;
  cfg.fabric_configs = fabrics;
  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.max_affinity_run = 8;
  cfg.queue.aging_threshold = 24;
  return cfg;
}

}  // namespace

int main() {
  BenchJson json("telemetry_overhead");
  bench_common::stamp_reproducibility(
      json, 7100, "streams=9;frames=6;frame=32x32;me_range=4;rounds=5;round_s=0.2");
  std::printf("compiling the kernel library for geometries 12x8 and 8x4...\n");
  const KernelLibrary library(KernelLibraryConfig{{kDefaultGeometry, kSmallSccGeometry}});

  FabricConfig large;
  large.geometry = kDefaultGeometry;
  FabricConfig small;
  small.geometry = kSmallSccGeometry;
  const std::vector<FabricConfig> fabrics = {large, small, small};

  constexpr int kRounds = 5;
  constexpr double kRoundSeconds = 0.2;  ///< untraced run time per round
  const std::vector<StreamJob> pristine = mixed_workload();
  std::uint64_t off_makespan = 0, on_makespan = 0;
  std::uint64_t min_makespan = ~std::uint64_t{0}, max_makespan = 0;
  std::vector<StreamJob> off_jobs, on_jobs;
  RunReport traced;  // last traced report: spans + attribution + exports
  telemetry::MetricsRegistry metrics;
  const auto note_makespan = [&](std::uint64_t m) {
    min_makespan = std::min(min_makespan, m);
    max_makespan = std::max(max_makespan, m);
  };
  const auto run_off = [&] {
    off_jobs = pristine;
    const RunReport report = MultiStreamScheduler(library, pool_config(fabrics)).run(off_jobs);
    off_makespan = report.sim_makespan_cycles;
    note_makespan(off_makespan);
    return report.wall_seconds;
  };
  const auto run_on = [&] {
    on_jobs = pristine;
    telemetry::TraceRecorder recorder;
    metrics.clear();
    SchedulerConfig cfg = pool_config(fabrics);
    cfg.trace = &recorder;
    traced = MultiStreamScheduler(library, cfg).run(on_jobs);
    telemetry::fill_metrics(traced, on_jobs, metrics);
    on_makespan = traced.sim_makespan_cycles;
    note_makespan(on_makespan);
    return traced.wall_seconds;
  };

  // Alternate off/on runs so slow-host drift (thermal, competing load)
  // hits both variants alike; keep each variant's minimum over rounds of
  // its mean run time.
  double off_min_s = 0.0, on_min_s = 0.0;
  int runs = 0;
  for (int round = 0; round < kRounds; ++round) {
    double off_s = 0.0, on_s = 0.0;
    int n = 0;
    for (; off_s < kRoundSeconds; ++n) {
      // Swap which runs first every pair: the second run of a pair is
      // the warmer one.
      if (n % 2 == 0) {
        off_s += run_off();
        on_s += run_on();
      } else {
        on_s += run_on();
        off_s += run_off();
      }
    }
    runs += n;
    off_min_s = round == 0 ? off_s / n : std::min(off_min_s, off_s / n);
    on_min_s = round == 0 ? on_s / n : std::min(on_min_s, on_s / n);
  }

  const double overhead_pct =
      off_min_s > 0.0 ? 100.0 * (on_min_s - off_min_s) / off_min_s : 0.0;
  const int mismatches = bench_common::count_output_mismatches(off_jobs, on_jobs);

  // Modeled bit-exactness: tracing off and on, every round must plan the
  // same makespan to the cycle.
  const std::uint64_t makespan_diff = max_makespan - min_makespan;

  // Attribution exactness: components must sum to end-to-end, per
  // stream, in integer cycles — no rounding slack.
  std::uint64_t attribution_mismatches = 0;
  for (const telemetry::StreamAttribution& a : traced.attribution)
    if (a.components_sum() != a.end_to_end_cycles) ++attribution_mismatches;

  attribution_table(traced).print();
  std::printf("\ntracing on vs off over %d rounds, %d alternating run pairs (min over "
              "rounds of the mean run):\n", kRounds, runs);
  std::printf("  host wall per run: off %.5fs, on %.5fs -> %+.1f%% overhead (bar: <= 10%%)\n",
              off_min_s, on_min_s, overhead_pct);
  std::printf("  modeled makespan over every run: %llu..%llu cycles (diff %llu; bar: 0)\n",
              static_cast<unsigned long long>(min_makespan),
              static_cast<unsigned long long>(max_makespan),
              static_cast<unsigned long long>(makespan_diff));
  std::printf("  encoded output mismatches: %d (bar: 0)\n", mismatches);
  std::printf("  spans: %zu, streams attributed: %zu, attribution sum mismatches: %llu\n",
              traced.spans.size(), traced.attribution.size(),
              static_cast<unsigned long long>(attribution_mismatches));

  telemetry::write_chrome_trace("TRACE_telemetry_overhead.json", traced);
  bench_common::write_metrics_artifact("telemetry_overhead", metrics, traced.wall_seconds,
                                       {"TRACE_telemetry_overhead.json"});

  json.metric("rounds", kRounds);
  json.metric("run_pairs", runs);
  json.metric("off_wall_seconds", off_min_s);
  json.metric("on_wall_seconds", on_min_s);
  json.metric("off_makespan_cycles", static_cast<double>(off_makespan));
  json.metric("on_makespan_cycles", static_cast<double>(on_makespan));
  json.metric("spans", static_cast<double>(traced.spans.size()));
  json.metric("streams_attributed", static_cast<double>(traced.attribution.size()));
  json.bar("host_overhead_pct", overhead_pct, "<=", 10.0);
  json.bar("modeled_makespan_diff_cycles", static_cast<double>(makespan_diff), "<=", 0.0);
  json.bar("output_mismatches", static_cast<double>(mismatches), "<=", 0.0);
  json.bar("attribution_sum_mismatches", static_cast<double>(attribution_mismatches), "<=",
           0.0);
  json.bar("span_count", static_cast<double>(traced.spans.size()), ">", 0.0);
  return bench_common::finish(json);
}

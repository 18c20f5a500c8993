// Health monitoring overhead: the flight recorder and the epoch ticks
// must observe, never perturb.
//
// Runs the hetero-pool mixed workload twice per round — health off, then
// health on (flight recorder + a tick every 1/40 of the makespan, in
// modeled cycles) — for several interleaved rounds, and compares:
//
//  * host CPU time: a run's process CPU time (every worker and the
//    planner) with monitoring on over the same round's run with it off,
//    median over rounds, must stay within 2% above 1. CPU time leaves
//    out the spells a loaded host runs other work, which wall time
//    charges to whichever run they hit; pairing and the median suppress
//    the rest;
//  * modeled array cycles: bit-exact on the full pool — every run,
//    monitored or not, plans the same makespan; monitoring only
//    observes;
//  * encoded outputs: bit-exact on the full pool;
//  * verdicts: every monitored round writes the same health dump, byte
//    for byte — snapshots, trips and flight records are functions of the
//    plan, not of the host;
//  * watchdog hygiene: a clean run trips NOTHING — zero anomalies — while
//    still recording flight events and health epochs (the recorder is
//    demonstrably on, not accidentally disabled);
//  * artifact validity: HEALTH_health_overhead.json is written next to
//    BENCH_health_overhead.json for tools/validate_trace.py in CI.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/report.hpp"
#include "runtime/health/monitor.hpp"
#include "runtime/scheduler.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

std::vector<StreamJob> mixed_workload() {
  // Same mix as bench_hetero_pool / bench_telemetry_overhead: three
  // cordic streams pinned to the full-size array, six scc/mixed_rom
  // streams the small arrays can host.
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
    // Long enough (~100 ms host) that min-of-N timing jitter sits well
    // under the 2% overhead bar instead of dominating it.
    cfg.frame_budget = 200;
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
  cfg.queue.mode = DispatchMode::kStagePipeline;
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.max_affinity_run = 8;
  cfg.queue.aging_threshold = 24;
  return cfg;
}

/// Health epochs per run: tens of ticks, each a full snapshot + watchdog pass.
constexpr std::uint64_t kEpochsPerRun = 40;

}  // namespace

int main() {
  BenchJson json("health_overhead");
  bench_common::stamp_reproducibility(
      json, 7100, "streams=9;frames=200;frame=32x32;me_range=4;rounds=21");
  std::printf("compiling the kernel library for geometries 12x8 and 8x4...\n");
  const KernelLibrary library(KernelLibraryConfig{{kDefaultGeometry, kSmallSccGeometry}});

  FabricConfig large;
  large.geometry = kDefaultGeometry;
  FabricConfig small;
  small.geometry = kSmallSccGeometry;
  const std::vector<FabricConfig> fabrics = {large, small, small};

  constexpr int kRounds = 21;
  const auto cpu_now = [] { return bench_common::cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); };
  std::uint64_t min_makespan = ~std::uint64_t{0}, max_makespan = 0;
  const auto note_makespan = [&](const RunReport& report) {
    min_makespan = std::min(min_makespan, report.sim_makespan_cycles);
    max_makespan = std::max(max_makespan, report.sim_makespan_cycles);
  };
  std::vector<StreamJob> off_jobs, on_jobs;
  std::uint64_t anomalies = 0, flight_events = 0, flight_dropped = 0, epochs = 0;
  std::uint64_t epoch_cycles = 0;
  std::string health_dump, first_verdicts;
  int dump_mismatches = 0;

  const auto run_off = [&] {
    off_jobs = mixed_workload();
    MultiStreamScheduler scheduler(library, pool_config(fabrics));
    const double cpu_start = cpu_now();
    const RunReport report = scheduler.run(off_jobs);
    const double cpu_s = cpu_now() - cpu_start;
    note_makespan(report);
    if (epoch_cycles == 0)
      epoch_cycles = std::max<std::uint64_t>(report.sim_makespan_cycles / kEpochsPerRun, 1);
    return cpu_s;
  };
  const auto run_on = [&] {
    on_jobs = mixed_workload();
    health::HealthMonitorConfig monitor_cfg;
    monitor_cfg.epoch_cycles = epoch_cycles;
    health::HealthMonitor monitor(monitor_cfg);
    SchedulerConfig cfg = pool_config(fabrics);
    cfg.health = &monitor;
    MultiStreamScheduler scheduler(library, cfg);
    const double cpu_start = cpu_now();
    const RunReport report = scheduler.run(on_jobs);
    const double cpu_s = cpu_now() - cpu_start;
    note_makespan(report);
    anomalies = monitor.anomalies_total();
    flight_events = monitor.flight().recorded();
    flight_dropped = monitor.flight().dropped();
    epochs = monitor.epochs();
    health_dump = monitor.health_json(report.wall_seconds);
    const std::string verdicts = monitor.health_json(0.0);
    if (first_verdicts.empty())
      first_verdicts = verdicts;
    else if (verdicts != first_verdicts)
      ++dump_mismatches;
    return cpu_s;
  };

  // Each round runs one unmonitored and one monitored run back to back,
  // swapping which goes first every round (the second run of a pair is
  // the warmer one), so host drift (thermal, competing load) hits both
  // alike. A run's CPU time still varies by up to ~15% on a shared host,
  // so the overhead is the median over rounds of the pair's CPU-time
  // ratio.
  std::vector<double> off_s, on_s, ratios;
  for (int round = 0; round < kRounds; ++round) {
    if (round % 2 == 0) {
      off_s.push_back(run_off());
      on_s.push_back(run_on());
    } else {
      on_s.push_back(run_on());
      off_s.push_back(run_off());
    }
    ratios.push_back(on_s.back() / off_s.back());
  }
  const double off_median_s = percentile(off_s, 50.0);
  const double on_median_s = percentile(on_s, 50.0);
  const double overhead_pct = 100.0 * (percentile(ratios, 50.0) - 1.0);
  const int mismatches = bench_common::count_output_mismatches(off_jobs, on_jobs);

  // Modeled bit-exactness: monitoring off and on, every round must plan
  // the same makespan to the cycle.
  const std::uint64_t makespan_diff = max_makespan - min_makespan;

  std::printf("\nhealth monitoring on vs off over %d alternating run pairs (process CPU "
              "time):\n", kRounds);
  std::printf("  median run: off %.4fs, on %.4fs; median pair ratio -> %+.1f%% overhead "
              "(bar: <= 2%%)\n", off_median_s, on_median_s, overhead_pct);
  std::printf("  modeled makespan over every run: %llu..%llu cycles (diff %llu; bar: 0)\n",
              static_cast<unsigned long long>(min_makespan),
              static_cast<unsigned long long>(max_makespan),
              static_cast<unsigned long long>(makespan_diff));
  std::printf("  encoded output mismatches: %d (bar: 0)\n", mismatches);
  std::printf("  health dumps differing from round 1's: %d (bar: 0)\n", dump_mismatches);
  std::printf("  flight events: %llu recorded, %llu overwritten; health epochs: %llu of "
              "%llu cycles; anomalies: %llu (bar: 0)\n",
              static_cast<unsigned long long>(flight_events),
              static_cast<unsigned long long>(flight_dropped),
              static_cast<unsigned long long>(epochs),
              static_cast<unsigned long long>(epoch_cycles),
              static_cast<unsigned long long>(anomalies));

  if (!bench_common::write_text_artifact("HEALTH_health_overhead.json", health_dump))
    std::fprintf(stderr, "warning: failed to write HEALTH_health_overhead.json\n");

  json.metric("rounds", kRounds);
  json.metric("off_cpu_seconds", off_median_s);
  json.metric("on_cpu_seconds", on_median_s);
  json.metric("flight_events_recorded", static_cast<double>(flight_events));
  json.metric("flight_events_overwritten", static_cast<double>(flight_dropped));
  json.metric("health_epochs", static_cast<double>(epochs));
  json.metric("health_epoch_cycles", static_cast<double>(epoch_cycles));
  json.bar("host_overhead_pct", overhead_pct, "<=", 2.0);
  json.bar("modeled_makespan_diff_cycles", static_cast<double>(makespan_diff), "<=", 0.0);
  json.bar("output_mismatches", static_cast<double>(mismatches), "<=", 0.0);
  json.bar("health_dump_mismatches", static_cast<double>(dump_mismatches), "<=", 0.0);
  json.bar("watchdog_trips_clean_run", static_cast<double>(anomalies), "<=", 0.0);
  json.bar("flight_events", static_cast<double>(flight_events), ">", 0.0);
  json.bar("health_epochs_bar", static_cast<double>(epochs), ">", 0.0);
  return bench_common::finish(json);
}

// Health monitoring overhead: the flight recorder and the epoch ticks
// must observe, never perturb.
//
// Runs the hetero-pool mixed workload twice per round — health off, then
// health on (flight recorder + a tick every 1/40 of the makespan, in
// modeled cycles) — for several interleaved rounds, and compares:
//
//  * host wall time: the monitored minimum over rounds must stay within
//    2% of the unmonitored minimum (min-of-N suppresses scheduler noise
//    on a loaded host);
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
    // Long enough (~100 ms host) that min-of-N wall-clock jitter sits
    // well under the 2% overhead bar instead of dominating it.
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
      json, 7100, "streams=9;frames=200;frame=32x32;me_range=4;rounds=7");
  std::printf("compiling the kernel library for geometries 12x8 and 8x4...\n");
  const KernelLibrary library(KernelLibraryConfig{{kDefaultGeometry, kSmallSccGeometry}});

  FabricConfig large;
  large.geometry = kDefaultGeometry;
  FabricConfig small;
  small.geometry = kSmallSccGeometry;
  const std::vector<FabricConfig> fabrics = {large, small, small};

  constexpr int kRounds = 7;
  double off_min_s = 0.0, on_min_s = 0.0;
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

  // Interleave off/on rounds so slow-host drift (thermal, competing
  // load) hits both variants alike; keep the per-variant minimum.
  for (int round = 0; round < kRounds; ++round) {
    {
      off_jobs = mixed_workload();
      MultiStreamScheduler scheduler(library, pool_config(fabrics));
      const RunReport report = scheduler.run(off_jobs);
      off_min_s = round == 0 ? report.wall_seconds : std::min(off_min_s, report.wall_seconds);
      note_makespan(report);
      if (round == 0)
        epoch_cycles = std::max<std::uint64_t>(report.sim_makespan_cycles / kEpochsPerRun, 1);
    }
    {
      on_jobs = mixed_workload();
      health::HealthMonitorConfig monitor_cfg;
      monitor_cfg.epoch_cycles = epoch_cycles;
      health::HealthMonitor monitor(monitor_cfg);
      SchedulerConfig cfg = pool_config(fabrics);
      cfg.health = &monitor;
      MultiStreamScheduler scheduler(library, cfg);
      const RunReport report = scheduler.run(on_jobs);
      on_min_s = round == 0 ? report.wall_seconds : std::min(on_min_s, report.wall_seconds);
      note_makespan(report);
      anomalies = monitor.anomalies_total();
      flight_events = monitor.flight().recorded();
      flight_dropped = monitor.flight().dropped();
      epochs = monitor.epochs();
      health_dump = monitor.health_json(report.wall_seconds);
      const std::string verdicts = monitor.health_json(0.0);
      if (round == 0)
        first_verdicts = verdicts;
      else if (verdicts != first_verdicts)
        ++dump_mismatches;
    }
  }

  const double overhead_pct =
      off_min_s > 0.0 ? 100.0 * (on_min_s - off_min_s) / off_min_s : 0.0;
  const int mismatches = bench_common::count_output_mismatches(off_jobs, on_jobs);

  // Modeled bit-exactness: monitoring off and on, every round must plan
  // the same makespan to the cycle.
  const std::uint64_t makespan_diff = max_makespan - min_makespan;

  std::printf("\nhealth monitoring on vs off over %d interleaved rounds (min wall time):\n",
              kRounds);
  std::printf("  host wall: off %.4fs, on %.4fs -> %+.1f%% overhead (bar: <= 2%%)\n",
              off_min_s, on_min_s, overhead_pct);
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
  json.metric("off_wall_seconds", off_min_s);
  json.metric("on_wall_seconds", on_min_s);
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

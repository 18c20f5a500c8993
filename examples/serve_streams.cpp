// Multi-stream serving demo.
//
// A base station serves several phones at once. Each phone reports its
// runtime condition (battery, channel quality); the SoC policy assigns it
// a DCT bitstream, and the multi-stream scheduler splits every frame into
// the paper's kernel stages — ME on the systolic array fabric, DCT/quant
// and reconstruction on the DA/CORDIC fabrics — pipelining frame k+1's
// motion search over frame k's transform while batching streams that
// share a configuration so each fabric switches bitstreams as rarely as
// fairness allows.
//
// With --dynamic the phones' conditions *move* while they stream:
// batteries drain, channels fade, and each stream re-selects its DCT
// bitstream per frame through a hysteresis band, so the scheduler
// re-buckets streams onto new configurations mid-flight.
//
// With --partial a bitstream switch rewrites only the cluster frames
// that differ from the fabric's resident configuration (the library's
// precomputed delta table) instead of reloading the full stream, and a
// context-cache miss fetches only the delta bytes over the bus — the
// run report shows partial vs full reloads, the delta bytes shifted and
// the bus bytes saved.
//
// With --hetero one transform fabric shrinks to the small 8x4 array the
// scc mappings fit (cordic1/cordic2 do not): dispatch filters candidate
// fabrics by placement feasibility, and the per-geometry table shows
// how often routing steered around the small array.
//
// With --tenancy the second transform fabric is spatially partitioned:
// static_partition_plan splits its 12x8 array into two 8x4 co-tenant
// slots, each a first-class dispatch target with its own resident
// context, while phone streams that need the full array keep landing on
// the exclusive fabric. The per-partition occupancy table shows each
// rectangle's busy cycles, configuration-port contention against its
// co-tenant, and region-delta traffic. A partition plan that fails
// placement validation (overlap, out of bounds, a geometry the library
// cannot place) makes the run exit nonzero.
//
// With --sla every phone carries a deadline and a per-frame p99 budget
// in modeled cycles, and the admission controller walks its degradation
// ladder (QP bump -> half resolution -> cheapest context -> shed) before
// the run; the admission table shows each phone's rung and whether its
// SLA held. --overload triples the caller list to ~3x pool capacity so
// the ladder actually has to degrade and shed — the overloaded tier
// keeps the admitted phones' tails bounded instead of serving everyone
// late.
//
// With --trace <file> the run is span-traced and exported as Chrome
// trace-event JSON (open in Perfetto or chrome://tracing: one track per
// modeled fabric and per stream, plus host worker tracks), and the
// per-stream stall attribution table is printed. --metrics <file> writes
// the traced run's counters, latency histograms and per-epoch
// utilization / queue-depth timelines as metrics JSON (--metrics-epochs N
// samples the timelines at N epochs instead of the default 32).
//
// With --health the run carries the health monitor: a flight recorder of
// scheduling events, health snapshots at modeled-cycle epochs (queue
// depth/age, per-fabric utilization, SLA burn rates) and the three
// anomaly watchdogs (queue growth, starvation, SLA burn), all judged in
// one pass over the plan on the planner's clock, so one input gives one
// verdict. --health-dump <file> writes the health post-mortem JSON at run
// end. A tripped watchdog makes the exit code nonzero, as does an
// admitted-stream SLA violation under --sla — so scripts and CI can gate
// on both.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "runtime/health/monitor.hpp"
#include "runtime/partition.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/telemetry/export.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"
#include "soc/trajectory.hpp"

int main(int argc, char** argv) {
  using namespace dsra;
  using namespace dsra::runtime;

  bool dynamic = false;
  bool partial = false;
  bool hetero = false;
  bool tenancy = false;
  bool sla = false;
  bool overload = false;
  bool health = false;
  std::string trace_path;
  std::string metrics_path;
  std::string health_dump_path;
  int metrics_epochs = 32;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--dynamic") == 0 || std::strcmp(argv[a], "-d") == 0)
      dynamic = true;
    else if (std::strcmp(argv[a], "--partial") == 0 || std::strcmp(argv[a], "-p") == 0)
      partial = true;
    else if (std::strcmp(argv[a], "--hetero") == 0 || std::strcmp(argv[a], "-g") == 0)
      hetero = true;
    else if (std::strcmp(argv[a], "--tenancy") == 0 || std::strcmp(argv[a], "-t") == 0)
      tenancy = true;
    else if (std::strcmp(argv[a], "--sla") == 0 || std::strcmp(argv[a], "-s") == 0)
      sla = true;
    else if (std::strcmp(argv[a], "--overload") == 0 || std::strcmp(argv[a], "-o") == 0)
      overload = true;
    else if (std::strcmp(argv[a], "--health") == 0)
      health = true;
    else if (std::strcmp(argv[a], "--health-dump") == 0 && a + 1 < argc) {
      health = true;
      health_dump_path = argv[++a];
    } else if (std::strcmp(argv[a], "--trace") == 0 && a + 1 < argc)
      trace_path = argv[++a];
    else if (std::strcmp(argv[a], "--metrics") == 0 && a + 1 < argc)
      metrics_path = argv[++a];
    else if (std::strcmp(argv[a], "--metrics-epochs") == 0 && a + 1 < argc)
      metrics_epochs = std::atoi(argv[++a]);
    else
      std::fprintf(stderr,
                   "unknown flag '%s' (known: --dynamic, --partial, --hetero, "
                   "--tenancy, --sla, --overload, --health, --health-dump <file>, "
                   "--trace <file>, --metrics <file>, --metrics-epochs <n>)\n",
                   argv[a]);
  }

  std::printf("compiling the shared kernel library%s...\n",
              hetero || tenancy ? " (geometries 12x8 + 8x4)" : "");
  KernelLibraryConfig lib_cfg;
  if (hetero || tenancy) lib_cfg.geometries = {kDefaultGeometry, kSmallSccGeometry};
  const KernelLibrary library(lib_cfg);

  struct Caller {
    const char* label;
    soc::RuntimeCondition condition;
    soc::TrajectoryPtr trajectory;  ///< used with --dynamic
  };
  const Caller callers[] = {
      {"phone-1: full battery, clean channel", {1.00, 0.95},
       soc::constant_trajectory({1.00, 0.95})},
      {"phone-2: half battery, draining", {0.50, 0.95},
       soc::linear_battery_drain(0.50, 0.05, 0.95)},
      {"phone-3: entering a tunnel", {0.90, 0.30},
       soc::stepped_channel_fade(0.90, {0.90, 0.30, 0.85}, 2)},
      {"phone-4: battery nearly flat", {0.12, 0.80},
       soc::linear_battery_drain(0.12, 0.02, 0.80)},
      {"phone-5: sensor jitter on a boundary", {0.60, 0.92},
       soc::jittered_trajectory(soc::constant_trajectory({0.60, 0.92}), 7, 0.05)},
      {"phone-6: noisy, fading channel", {0.85, 0.20},
       soc::sinusoidal_channel_fade(0.85, 0.45, 0.15, 4.0)},
  };

  // Whole-stream cost of one caller in modeled cycles, for writing the
  // SLAs and sizing the health epochs: the admission controller's
  // analytic model is exact, so the deadlines below are multiples of real
  // demand, not guesses.
  std::uint64_t stream_cost = 0;
  if (sla || health) {
    StreamConfig probe_cfg;
    probe_cfg.width = 64;
    probe_cfg.height = 64;
    probe_cfg.frame_budget = 6;
    probe_cfg.condition = callers[0].condition;
    probe_cfg.codec.me_range = 4;
    const StreamJob probe_job = make_synthetic_job(0, probe_cfg);
    const FabricPool probe_pool(1, library);
    const AdmissionController probe(library, probe_pool, me::SystolicParams{});
    for (int f = 0; f < probe_cfg.frame_budget; ++f)
      stream_cost += probe.frame_cycles(probe_job, f);
  }

  // --overload triples the caller list: the same phones arrive in three
  // bursty waves, ~3x what the two transform fabrics can serve inside
  // the deadline horizon.
  const int waves = overload ? 3 : 1;
  std::vector<StreamJob> jobs;
  int id = 0;
  for (int wave = 0; wave < waves; ++wave) {
    for (const Caller& caller : callers) {
      StreamConfig cfg;
      cfg.name = "phone-" + std::to_string(id + 1);
      cfg.width = 64;
      cfg.height = 64;
      cfg.frame_budget = 6;
      cfg.condition = caller.condition;
      if (dynamic) {
        cfg.trajectory = caller.trajectory;
        cfg.condition_policy = soc::ConditionPolicy::kHysteresis;
        cfg.hysteresis_band = 0.06;
      }
      cfg.codec.me_range = 4;
      cfg.seed = 77 + static_cast<std::uint64_t>(id) * 13;
      if (sla) {
        cfg.sla.deadline_cycles = 6 * stream_cost;
        cfg.sla.p99_budget_cycles = 4 * stream_cost;
      }
      jobs.push_back(make_synthetic_job(id, cfg));
      if (wave == 0)
        std::printf("  %-40s -> %s%s\n", caller.label, jobs.back().impl_name.c_str(),
                    dynamic && jobs.back().condition_switches > 0
                        ? " (re-selects mid-stream)"
                        : "");
      ++id;
    }
  }

  SchedulerConfig cfg;
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.mode = DispatchMode::kStagePipeline;
  // The paper's SoC floorplan: one systolic ME fabric beside two
  // DA/CORDIC transform fabrics, each with a bounded context store.
  // With --hetero the second transform fabric is the small 8x4 array.
  FabricConfig me_fabric, dct_fabric;
  me_fabric.capabilities = kCapMotionEstimation;
  me_fabric.partial_reconfig = partial;
  me_fabric.delta_fetch = partial;
  dct_fabric.capabilities = kCapDctTransform;
  dct_fabric.context_capacity_bytes = library.total_bytes(kDefaultGeometry) / 2;
  dct_fabric.partial_reconfig = partial;
  dct_fabric.delta_fetch = partial;
  FabricConfig small_dct = dct_fabric;
  small_dct.geometry = kSmallSccGeometry;
  small_dct.context_capacity_bytes = 0;  // the small library fits whole
  // --tenancy splits the second transform fabric's 12x8 array into two
  // co-tenant 8x4 slots; the first transform fabric stays exclusive so
  // cordic streams keep a full-size placement target.
  FabricConfig tenant_dct = dct_fabric;
  tenant_dct.partitions = static_partition_plan(tenant_dct.geometry);
  cfg.fabric_configs = {me_fabric, dct_fabric,
                        tenancy ? tenant_dct : (hetero ? small_dct : dct_fabric)};
  cfg.admission.enabled = sla;

  // Metrics are a view of the traced run's report.
  telemetry::TraceRecorder recorder;
  telemetry::MetricsRegistry metrics;
  if (!trace_path.empty() || !metrics_path.empty()) cfg.trace = &recorder;
  if (metrics_epochs > 0) metrics.set_timeline_epoch_cap(static_cast<std::size_t>(metrics_epochs));

  // Health: a tick every eighth of one phone's modeled cost (tens of
  // epochs per run); watchdog trips flip the exit code.
  health::HealthMonitorConfig health_cfg;
  health_cfg.epoch_cycles = stream_cost / 8;
  health::HealthMonitor monitor(health_cfg);
  if (health) cfg.health = &monitor;

  std::printf("\nserving %zu streams%s, stage-pipelined over %zu fabrics "
              "(1 systolic ME + %s)%s...\n\n",
              jobs.size(), dynamic ? " under drifting conditions" : "",
              cfg.fabric_configs.size(),
              tenancy ? "a 12x8 + a 2x-partitioned 12x8 DA/CORDIC"
                      : (hetero ? "a 12x8 + an 8x4 DA/CORDIC" : "2 DA/CORDIC"),
              partial ? ", partial reconfiguration + delta fetch on" : "");
  RunReport report;
  try {
    report = MultiStreamScheduler(library, cfg).run(jobs);
  } catch (const std::invalid_argument& err) {
    // A partition plan that fails placement validation (overlap, out of
    // bounds, a geometry the library cannot place) is a config error,
    // not a crash: report it and gate on the exit code.
    std::fprintf(stderr, "FAIL: partition placement validation: %s\n", err.what());
    return 2;
  }

  if (sla) {
    admission_table(report).print();
    std::printf("\n");
  }
  stream_table(report).print();
  if (dynamic) {
    std::printf("\n");
    condition_table(report).print();
  }
  if (hetero) {
    std::printf("\n");
    geometry_table(report).print();
  }
  if (tenancy) {
    std::printf("\n");
    partition_table(report).print();
  }
  if (!report.attribution.empty()) {
    std::printf("\n");
    attribution_table(report).print();
  }
  std::printf("\n");
  reconfig_table(report).print();
  std::printf("\naggregate: %.1f frames/s, %d bitstream switches, "
              "%llu reconfig cycles (me %llu / dct %llu), "
              "cache %llu hits / %llu misses / %llu evictions\n",
              report.frames_per_second, report.total_switches,
              static_cast<unsigned long long>(report.total_reconfig_cycles),
              static_cast<unsigned long long>(report.me_reconfig_cycles),
              static_cast<unsigned long long>(report.dct_reconfig_cycles),
              static_cast<unsigned long long>(report.cache.hits),
              static_cast<unsigned long long>(report.cache.misses),
              static_cast<unsigned long long>(report.cache.evictions));
  std::printf("host: %.3f s wall, planning %.1f ms, execute tail %.1f ms\n",
              report.wall_seconds, static_cast<double>(report.plan_ns) / 1e6,
              static_cast<double>(report.execute_tail_ns) / 1e6);
  if (dynamic)
    std::printf("conditions drifted mid-stream %llu times; the queue re-bucketed those "
                "streams onto their new bitstreams without dropping a frame.\n",
                static_cast<unsigned long long>(report.condition_switches));
  if (partial)
    std::printf("partial reconfiguration served %llu of %d switches as cluster-frame "
                "deltas (%llu bytes through the port instead of full bitstreams); "
                "delta-aware fetch saved %llu bus bytes on %llu cache misses.\n",
                static_cast<unsigned long long>(report.partial_reloads),
                report.total_switches,
                static_cast<unsigned long long>(report.delta_bytes),
                static_cast<unsigned long long>(report.cache.bytes_saved),
                static_cast<unsigned long long>(report.cache.delta_fetches));
  if (hetero)
    std::printf("the small 8x4 array cannot place cordic1/cordic2; dispatch routed "
                "around it %llu times and the streams it can host batched onto it.\n",
                static_cast<unsigned long long>(report.placement_rejections));
  if (tenancy) {
    std::uint64_t region_ops = 0;
    for (const PartitionSummary& p : report.partitions)
      region_ops += p.region_deltas + p.region_blits;
    std::printf("spatial tenancy: %d scheduler slots on %d physical fabrics; co-tenant "
                "slots paid %llu modeled cycles of configuration-port contention and "
                "%llu region-scoped programming operations stayed inside their "
                "rectangles.\n",
                report.fabrics, report.physical_fabrics,
                static_cast<unsigned long long>(report.port_contention_cycles),
                static_cast<unsigned long long>(region_ops));
  }
  if (sla)
    std::printf("admission: %llu/%llu phones admitted (%llu degraded, %llu shed) — "
                "%llu SLA-compliant frames, %llu admitted-stream violations.\n",
                static_cast<unsigned long long>(report.admission.admitted),
                static_cast<unsigned long long>(report.admission.arrived),
                static_cast<unsigned long long>(report.admission.admitted -
                                                report.admission.admitted_clean),
                static_cast<unsigned long long>(report.admission.rejected),
                static_cast<unsigned long long>(report.goodput_frames),
                static_cast<unsigned long long>(report.sla_violations));
  std::printf("the fabrics stay the same silicon; the scheduler just chooses when to "
              "pay the configuration port.\n");
  if (!trace_path.empty() && telemetry::write_chrome_trace(trace_path, report))
    std::printf("trace written to %s (%zu spans; open in Perfetto or chrome://tracing)\n",
                trace_path.c_str(), report.spans.size());
  if (!metrics_path.empty()) {
    telemetry::fill_metrics(report, jobs, metrics);
    if (telemetry::write_metrics_json(metrics_path, metrics, report.wall_seconds))
      std::printf("metrics written to %s\n", metrics_path.c_str());
  }

  int exit_code = 0;
  if (health) {
    for (const health::WatchdogTrip& trip : monitor.trips())
      std::fprintf(stderr, "[health] %s watchdog tripped at epoch %llu: %s\n",
                   health::to_string(trip.kind), static_cast<unsigned long long>(trip.epoch),
                   trip.detail.c_str());
    std::printf("health: %llu epochs of %llu cycles, %llu flight events (%llu dropped), "
                "%llu watchdog trips\n",
                static_cast<unsigned long long>(monitor.epochs()),
                static_cast<unsigned long long>(health_cfg.epoch_cycles),
                static_cast<unsigned long long>(monitor.flight().recorded()),
                static_cast<unsigned long long>(monitor.flight().dropped()),
                static_cast<unsigned long long>(monitor.anomalies_total()));
    if (!health_dump_path.empty() &&
        monitor.dump(health_dump_path, report.wall_seconds))
      std::printf("health dump written to %s\n", health_dump_path.c_str());
    if (monitor.anomalies_total() > 0) {
      std::fprintf(stderr, "FAIL: %llu health watchdog(s) tripped\n",
                   static_cast<unsigned long long>(monitor.anomalies_total()));
      exit_code = 1;
    }
  }
  // Under --sla a violated admitted stream is a broken promise, not a
  // statistic: gate on it.
  if (sla && report.sla_violations > 0) {
    std::fprintf(stderr, "FAIL: %llu admitted stream(s) violated their SLA\n",
                 static_cast<unsigned long long>(report.sla_violations));
    exit_code = 1;
  }
  return exit_code;
}

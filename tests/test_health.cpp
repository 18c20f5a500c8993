// Health subsystem: flight-recorder ring semantics (wrap keeps each
// ring's newest records, the merge is in global order, records carry
// their modeled cycle), watchdog trips on injected anomalies fed to the
// monitor's pass as hand-built plan records (queue growth, starvation,
// SLA burn — each demonstrably fires, and the burn detector fires
// *before* the deadline passes), modeled epochs (one tick per
// epoch_cycles boundary, then the makespan), per-epoch fabric
// utilization credited from the jobs' modeled intervals, verdicts that
// repeat exactly across runs, zero-cost-off bit-exactness, clean runs
// (admitted streams that meet their deadlines among them) tripping
// nothing, pinned health dumps, and the metrics timeline epoch cap
// accounting its drops.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "plan_workloads.hpp"
#include "runtime/health/flight_recorder.hpp"
#include "runtime/health/monitor.hpp"
#include "runtime/health/snapshot.hpp"
#include "runtime/health/watchdog.hpp"
#include "runtime/partition.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/telemetry/export.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

namespace dsra::runtime {
namespace {

using plan_workloads::library;
using plan_workloads::two_geometry_library;  // pools with co-tenant 8x4 slots

std::vector<StreamJob> mixed_workload(int streams, int frames, int size,
                                      std::uint64_t deadline_cycles = 0) {
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0},  // -> cordic1
      {0.5, 0.9},  // -> cordic2
      {0.9, 0.3},  // -> mixed_rom
      {0.1, 0.9},  // -> scc_full
  };
  std::vector<StreamJob> jobs;
  jobs.reserve(static_cast<std::size_t>(streams));
  for (int k = 0; k < streams; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = size;
    cfg.height = size;
    cfg.frame_budget = frames;
    cfg.condition = conditions[k % 4];
    cfg.codec.me_range = 4;
    cfg.seed = 9300 + static_cast<std::uint64_t>(k);
    cfg.sla.deadline_cycles = deadline_cycles;
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

/// Whole-stream analytic cost of @p job in modeled cycles.
std::uint64_t stream_cost(const StreamJob& job, const KernelLibrary& lib) {
  const FabricPool pool(1, lib);
  const AdmissionController model(lib, pool, me::SystolicParams{});
  std::uint64_t cycles = 0;
  for (int f = 0; f < static_cast<int>(job.frames.size()); ++f)
    cycles += model.frame_cycles(job, f);
  return cycles;
}

void expect_bit_exact(const StreamJob& a, const StreamJob& b) {
  ASSERT_EQ(a.records.size(), b.records.size()) << a.config.name;
  for (std::size_t k = 0; k < a.records.size(); ++k) {
    const video::FrameStats& sa = a.records[k].stats;
    const video::FrameStats& sb = b.records[k].stats;
    EXPECT_EQ(a.records[k].impl, b.records[k].impl) << a.config.name << "/" << k;
    EXPECT_DOUBLE_EQ(sa.bits, sb.bits) << a.config.name << "/" << k;
    EXPECT_DOUBLE_EQ(sa.psnr_db, sb.psnr_db) << a.config.name << "/" << k;
    EXPECT_EQ(sa.blocks_coded, sb.blocks_coded) << a.config.name << "/" << k;
    EXPECT_EQ(sa.dct_array_cycles, sb.dct_array_cycles) << a.config.name << "/" << k;
    EXPECT_EQ(sa.me_array_cycles, sb.me_array_cycles) << a.config.name << "/" << k;
  }
  EXPECT_EQ(a.recon_state.data(), b.recon_state.data()) << a.config.name;
}

std::string describe(const std::vector<health::WatchdogTrip>& trips) {
  std::string out;
  for (const health::WatchdogTrip& t : trips)
    out += "\n  " + std::string(to_string(t.kind)) + " at epoch " + std::to_string(t.epoch) +
           ": " + t.detail;
  return out;
}

// ---- flight recorder --------------------------------------------------

TEST(FlightRecorder, WrapKeepsEachRingsNewestRecordsStampedInCycles) {
  health::FlightRecorderConfig cfg;
  cfg.capacity_per_ring = 64;  // already a power of two
  health::FlightRecorder rec(cfg);
  rec.begin_run(/*fabrics=*/2);
  // Ring 0 wraps (200 records), ring 1 does not (10): each keeps its own
  // newest records, whatever the other ring does.
  const int total = 200;
  for (int i = 0; i < total; ++i) {
    const std::uint64_t t = 1000 + 10 * static_cast<std::uint64_t>(i);
    rec.record(0, t, health::EventKind::kDispatch, /*stream=*/i, /*frame=*/i % 7,
               /*value=*/static_cast<std::uint64_t>(i));
    if (i % 20 == 0) rec.record(1, t, health::EventKind::kReconfig, /*stream=*/i, -1, 7);
  }

  EXPECT_EQ(rec.recorded(), static_cast<std::uint64_t>(total + 10));
  EXPECT_EQ(rec.dropped(), static_cast<std::uint64_t>(total - 64));

  std::vector<health::FlightEvent> ring0, ring1;
  for (const health::FlightEvent& ev : rec.snapshot())
    (ev.ring == 0 ? ring0 : ring1).push_back(ev);
  // Overwrite-oldest: exactly ring 0's last 64 records survive, payloads
  // and modeled cycles intact.
  ASSERT_EQ(ring0.size(), 64u);
  for (std::size_t k = 0; k < ring0.size(); ++k) {
    const int i = total - 64 + static_cast<int>(k);
    EXPECT_EQ(ring0[k].stream_id, i);
    EXPECT_EQ(ring0[k].frame_index, i % 7);
    EXPECT_EQ(ring0[k].value, static_cast<std::uint64_t>(i));
    EXPECT_EQ(ring0[k].t_cycles, 1000 + 10 * static_cast<std::uint64_t>(i));
    EXPECT_EQ(ring0[k].kind, health::EventKind::kDispatch);
  }
  // Ring 1 never filled: all ten survive, the oldest included.
  ASSERT_EQ(ring1.size(), 10u);
  EXPECT_EQ(ring1.front().stream_id, 0);
  EXPECT_EQ(ring1.front().t_cycles, 1000u);
  EXPECT_EQ(ring1.back().stream_id, 180);
  EXPECT_EQ(ring1.back().t_cycles, 2800u);
}

TEST(FlightRecorder, MergesRingsInGlobalOrder) {
  health::FlightRecorder rec({256});
  rec.begin_run(/*fabrics=*/2);  // rings 0, 1 + control ring 2
  EXPECT_EQ(rec.control_ring(), 2);

  // Writes interleaved over every ring merge back in strictly increasing
  // global sequence order.
  for (int i = 0; i < 600; ++i)
    rec.record(i % 3, static_cast<std::uint64_t>(i), health::EventKind::kSteal, /*stream=*/i,
               /*frame=*/0, /*value=*/static_cast<std::uint64_t>(i));
  const std::vector<health::FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 600u);
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].seq, k + 1);
    EXPECT_EQ(events[k].ring, static_cast<int>(k % 3));
    EXPECT_EQ(static_cast<std::uint64_t>(events[k].stream_id), events[k].value);
  }

  EXPECT_EQ(rec.recorded(), 600u);
  const std::string json = rec.json();
  EXPECT_NE(json.find("\"capacity_per_ring\": 256"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"steal\""), std::string::npos);
  EXPECT_NE(json.find("\"t_cycles\": 599"), std::string::npos);
}

TEST(FlightRecorder, OutOfRangeRingIsDroppedNotFatal) {
  health::FlightRecorder rec({64});
  rec.begin_run(1);
  rec.record(7, 0, health::EventKind::kDispatch, 0, 0, 0);   // no such ring
  rec.record(-1, 0, health::EventKind::kDispatch, 0, 0, 0);  // negative
  EXPECT_TRUE(rec.snapshot().empty());
}

// ---- watchdogs over synthetic snapshots -------------------------------

health::HealthSnapshot snap_with(std::uint64_t epoch, std::uint64_t depth,
                                 std::uint64_t completions,
                                 std::uint64_t oldest_age = 0) {
  health::HealthSnapshot s;
  s.epoch = epoch;
  s.queue.depth = depth;
  s.queue.completions = completions;
  s.queue.oldest_age = oldest_age;
  return s;
}

TEST(Watchdogs, QueueGrowthTripsOnMonotoneGrowthAboveFloor) {
  health::WatchdogConfig cfg;
  cfg.growth_epochs = 4;
  cfg.growth_min_depth = 16;
  health::Watchdogs dogs(cfg);
  std::uint64_t epoch = 0, done = 0;
  // Growing but below the floor: transient ramp, no trip.
  for (std::uint64_t d = 1; d <= 5; ++d)
    EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, d, ++done)).empty());
  // Keep growing past the floor: 6..17 — the 4-epoch monotone run is
  // long satisfied, the floor arms the trip at depth >= 16.
  std::vector<health::WatchdogTrip> trips;
  for (std::uint64_t d = 6; d <= 17 && trips.empty(); ++d)
    trips = dogs.evaluate(snap_with(++epoch, d, ++done));
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].kind, health::WatchdogKind::kQueueGrowth);
}

TEST(Watchdogs, FlatDepthNeverTripsGrowth) {
  health::Watchdogs dogs;
  std::uint64_t epoch = 0, done = 0;
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, 20, ++done)).empty());
}

TEST(Watchdogs, StarvationTripsPastAgeBound) {
  health::WatchdogConfig cfg;
  cfg.starvation_age_bound = 128;
  health::Watchdogs dogs(cfg);
  std::uint64_t epoch = 0, done = 0;
  EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, 4, ++done, 128)).empty());
  const auto trips = dogs.evaluate(snap_with(++epoch, 4, ++done, 129));
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].kind, health::WatchdogKind::kStarvation);
}

// ---- injected anomalies through the pass -------------------------------

/// Stream @p stream's whole frame @p frame on fabric 0 over [start, end).
PlannedJob frame_job(int stream, int frame, std::uint64_t start, std::uint64_t end) {
  PlannedJob job;
  job.task = {stream, frame, StageKind::kWholeFrame};
  job.fabric_id = 0;
  job.ready_cycles = job.start_cycles = start;
  job.end_cycles = end;
  return job;
}

/// @p jobs planned on one transform fabric, each a batch acquired as it
/// starts, with an empty queue at every @p epoch_cycles boundary (none
/// for 0) before the last job's end and at that end.
health::PlanRecord one_fabric_record(const std::vector<PlannedJob>& jobs,
                                     std::vector<health::StreamBudget> streams,
                                     std::uint64_t epoch_cycles) {
  health::PlanRecord plan;
  plan.fabrics = plan.transform_fabrics = 1;
  plan.streams = std::move(streams);
  plan.jobs = jobs;
  for (const PlannedJob& job : jobs) plan.batches.push_back({1, job.start_cycles});
  for (std::uint64_t t = epoch_cycles; t > 0 && t < jobs.back().end_cycles; t += epoch_cycles)
    plan.ticks.push_back({t, {}});
  plan.ticks.push_back({jobs.back().end_cycles, {}});
  return plan;
}

TEST(HealthMonitor, GrowingQueueTripsGrowthWatchdog) {
  // Depth rises every epoch past the floor — arrivals outrunning service.
  health::HealthMonitorConfig cfg;
  cfg.watchdogs.growth_epochs = 3;
  cfg.watchdogs.growth_min_depth = 16;
  health::HealthMonitor monitor(cfg);
  health::PlanRecord plan;
  plan.fabrics = 2;
  for (std::uint64_t k = 1; k <= 4; ++k) {
    health::QueueHealthSample queue;
    queue.depth = 10 * k;
    plan.ticks.push_back({k * 1000, queue});
  }
  monitor.observe(plan);

  ASSERT_EQ(monitor.snapshots().size(), 4u);
  for (std::uint64_t k = 1; k <= 4; ++k) {
    EXPECT_EQ(monitor.snapshots()[k - 1].modeled_now_cycles, k * 1000);
    EXPECT_EQ(monitor.snapshots()[k - 1].queue.depth, 10 * k);
  }
  const std::vector<health::WatchdogTrip>& trips = monitor.trips();
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].kind, health::WatchdogKind::kQueueGrowth);
  EXPECT_EQ(monitor.anomalies_total(), trips.size());
  // The trip landed in the flight recorder's control ring too, stamped
  // with the tick that fired it (the fourth epoch).
  bool saw_trip_event = false;
  for (const health::FlightEvent& ev : monitor.flight().snapshot())
    if (ev.kind == health::EventKind::kWatchdogTrip) {
      saw_trip_event = true;
      EXPECT_EQ(ev.ring, monitor.flight().control_ring());
      EXPECT_EQ(ev.t_cycles, 4000u);
    }
  EXPECT_TRUE(saw_trip_event);
}

TEST(HealthMonitor, OverloadWaveTripsBurnRateBeforeDeadline) {
  // Stream 0 holds a deadline exactly equal to its own analytic cost —
  // feasible alone, hopeless once an overload wave (stream 1's traffic)
  // soaks the pool. Stream 0 finishes 1 frame in the 500 modeled cycles
  // the wave's 4 frames also took. At that rate it would need 5x its
  // deadline, but the one fabric drains the 1,500 cycles both streams have
  // left by cycle 2,000: projected completion 2x the deadline.
  const health::StreamBudget constrained{.deadline_cycles = 1000.0, .frames = 10};
  const health::StreamBudget wave{.frames = 10};  // best-effort background load
  // One fabric, 100 cycles a frame: stream 0's first frame, the wave's
  // first four, then the rest of stream 0 and of the wave.
  std::vector<PlannedJob> jobs;
  std::uint64_t clock = 0;
  const auto run = [&](int stream, int from, int to) {
    for (int f = from; f < to; ++f, clock += 100)
      jobs.push_back(frame_job(stream, f, clock, clock + 100));
  };
  run(0, 0, 1);
  run(1, 0, 4);
  run(0, 1, 10);
  run(1, 4, 10);

  health::HealthMonitorConfig cfg;
  cfg.watchdogs.burn_threshold = 1.25;
  cfg.watchdogs.burn_warmup = 0.10;
  health::HealthMonitor monitor(cfg);
  monitor.observe(one_fabric_record(jobs, {constrained, wave}, 500));

  const health::HealthSnapshot& snap = monitor.snapshots().front();
  ASSERT_EQ(snap.streams.size(), 2u);
  EXPECT_EQ(snap.streams[0].frames_done, 1);
  EXPECT_EQ(snap.streams[1].frames_done, 4);
  // Tripped BEFORE the deadline passed: the detector predicts the
  // violation while there is still budget left.
  EXPECT_LT(snap.modeled_now_cycles, 1000u);
  EXPECT_DOUBLE_EQ(snap.streams[0].burn_rate, 2.0);
  const std::vector<health::WatchdogTrip>& trips = monitor.trips();
  ASSERT_FALSE(trips.empty());
  EXPECT_EQ(trips[0].kind, health::WatchdogKind::kSlaBurn);
  EXPECT_EQ(trips[0].epoch, snap.epoch);
  EXPECT_EQ(trips[0].stream_id, 0);
  // Best-effort streams never carry a burn rate.
  EXPECT_EQ(snap.streams[1].burn_rate, 0.0);
  // Once finished, the projection is the cycle stream 0 finished at.
  EXPECT_DOUBLE_EQ(monitor.snapshots().back().streams[0].projected_completion_cycles, 1400.0);
}

TEST(HealthMonitor, BurnRatesAreAlwaysFiniteAndNonNegative) {
  // Epochs with zero progress, partial progress, and completion: one
  // 50-cycle frame per 50-cycle epoch, from the second epoch on.
  std::vector<PlannedJob> jobs;
  for (int f = 0; f < 4; ++f)
    jobs.push_back(frame_job(0, f, 50 * static_cast<std::uint64_t>(f + 1),
                             50 * static_cast<std::uint64_t>(f + 2)));
  health::HealthMonitor monitor;
  const health::StreamBudget b{.deadline_cycles = 500.0, .frames = 4};
  monitor.observe(one_fabric_record(jobs, {b}, 50));

  ASSERT_EQ(monitor.snapshots().size(), 5u);
  int frames_done = 0;
  for (const health::HealthSnapshot& snap : monitor.snapshots()) {
    ASSERT_EQ(snap.streams.size(), 1u);
    EXPECT_EQ(snap.streams[0].frames_done, frames_done++);
    const double burn = snap.streams[0].burn_rate;
    EXPECT_GE(burn, 0.0);
    EXPECT_TRUE(std::isfinite(burn));
  }
  EXPECT_EQ(monitor.anomalies_total(), 0u);  // on-budget throughout
}

TEST(HealthMonitor, RefusesARecordWhoseBatchesOrJobsDisagree) {
  const std::vector<PlannedJob> jobs = {frame_job(0, 0, 0, 50), frame_job(0, 1, 50, 100)};
  const health::StreamBudget stream{.frames = 2};
  health::HealthMonitor monitor;
  health::PlanRecord plan = one_fabric_record(jobs, {stream}, 0);
  plan.batches.pop_back();  // the second job in no batch
  EXPECT_THROW(monitor.observe(plan), std::invalid_argument);
  plan = one_fabric_record(jobs, {stream}, 0);
  plan.fabrics = 0;  // jobs on a fabric the record lacks
  EXPECT_THROW(monitor.observe(plan), std::out_of_range);
  plan = one_fabric_record(jobs, {{.frames = 1}}, 0);  // frame 1 of a 1-frame stream
  EXPECT_THROW(monitor.observe(plan), std::out_of_range);
  monitor.observe(one_fabric_record(jobs, {stream}, 0));
  EXPECT_EQ(monitor.snapshots().back().streams[0].frames_done, 2);
}

// ---- scheduler integration --------------------------------------------

TEST(HealthScheduler, ZeroCostOffIsBitExact) {
  // Health on vs off on a multi-fabric pool: modeled cycles and encoded
  // output must be identical — the monitor only observes.
  auto plain_jobs = mixed_workload(4, 3, 16);
  auto monitored_jobs = mixed_workload(4, 3, 16);

  SchedulerConfig cfg;
  cfg.fabric_configs.assign(3, FabricConfig{});
  cfg.queue.mode = DispatchMode::kStagePipeline;
  const RunReport plain = MultiStreamScheduler(library(), cfg).run(plain_jobs);

  health::HealthMonitorConfig mon_cfg;
  mon_cfg.epoch_cycles = plain.sim_makespan_cycles / 50;
  health::HealthMonitor monitor(mon_cfg);
  cfg.health = &monitor;
  const RunReport monitored = MultiStreamScheduler(library(), cfg).run(monitored_jobs);

  EXPECT_GE(monitor.epochs(), 50u);
  EXPECT_EQ(plain.sim_makespan_cycles, monitored.sim_makespan_cycles);
  EXPECT_EQ(plain.dispatches, monitored.dispatches);
  ASSERT_EQ(plain_jobs.size(), monitored_jobs.size());
  for (std::size_t s = 0; s < plain_jobs.size(); ++s)
    expect_bit_exact(plain_jobs[s], monitored_jobs[s]);
}

TEST(HealthScheduler, CleanRunTripsNothingAndRecordsFlightEvents) {
  auto jobs = mixed_workload(6, 3, 16);
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(2, FabricConfig{});
  cfg.queue.mode = DispatchMode::kStagePipeline;
  health::HealthMonitorConfig mon_cfg;
  mon_cfg.epoch_cycles = stream_cost(jobs[0], library()) / 10;
  health::HealthMonitor monitor(mon_cfg);
  telemetry::TraceRecorder recorder;
  cfg.health = &monitor;
  cfg.trace = &recorder;

  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);
  telemetry::MetricsRegistry metrics;
  telemetry::fill_metrics(report, jobs, metrics);

  // On failure, say which watchdog fired and why.
  const std::string trip_details = describe(monitor.trips());
  EXPECT_EQ(monitor.anomalies_total(), 0u) << trip_details;
  EXPECT_EQ(report.health_anomalies, 0u);
  EXPECT_TRUE(monitor.trips().empty()) << trip_details;
  // The run produced dispatch flight events and tens of epochs.
  EXPECT_GT(monitor.flight().recorded(), 0u);
  EXPECT_GE(monitor.epochs(), 10u);
  const std::vector<health::HealthSnapshot>& snaps = monitor.snapshots();
  ASSERT_FALSE(snaps.empty());
  // Epochs strictly monotone; the final snapshot sees the drained queue.
  for (std::size_t i = 1; i < snaps.size(); ++i)
    EXPECT_GT(snaps[i].epoch, snaps[i - 1].epoch);
  EXPECT_EQ(snaps.back().queue.depth, 0u);
  EXPECT_GT(snaps.back().queue.completions, 0u);
  // Exported into the metrics registry.
  const auto it = metrics.counters().find("health_anomalies_total");
  ASSERT_NE(it, metrics.counters().end());
  EXPECT_EQ(it->second, 0u);
  // The dump is well-formed enough to carry its schema stamp.
  const std::string json = monitor.health_json(report.wall_seconds);
  EXPECT_NE(json.find("\"kind\": \"health\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"flight_recorder\""), std::string::npos);
}

TEST(HealthScheduler, TicksAtEveryEpochBoundaryAndTheMakespan) {
  auto jobs = mixed_workload(5, 4, 16);
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(2, FabricConfig{});
  cfg.queue.mode = DispatchMode::kStagePipeline;
  const std::uint64_t epoch = stream_cost(jobs[0], library()) / 8;
  health::HealthMonitorConfig mon_cfg;
  mon_cfg.epoch_cycles = epoch;
  health::HealthMonitor monitor(mon_cfg);
  cfg.health = &monitor;
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  const std::uint64_t makespan = report.sim_makespan_cycles;
  const std::vector<health::HealthSnapshot>& snaps = monitor.snapshots();
  // One tick per boundary strictly before the makespan, then the makespan.
  const std::uint64_t boundaries = (makespan - 1) / epoch;
  ASSERT_EQ(snaps.size(), boundaries + 1);
  ASSERT_GE(snaps.size(), 10u);
  for (std::size_t k = 0; k + 1 < snaps.size(); ++k) {
    EXPECT_EQ(snaps[k].epoch, k + 1);
    EXPECT_EQ(snaps[k].modeled_now_cycles, (k + 1) * epoch);
    for (const health::FabricHealth& f : snaps[k].fabrics) {
      EXPECT_GE(f.utilization, 0.0);
      EXPECT_LE(f.utilization, 1.0);
    }
  }
  const health::HealthSnapshot& last = snaps.back();
  EXPECT_EQ(last.modeled_now_cycles, makespan);
  EXPECT_EQ(last.queue.depth, 0u);
  EXPECT_EQ(last.queue.completions, last.queue.dispatches);
  std::uint64_t jobs_done = 0;
  for (const health::FabricHealth& f : last.fabrics) jobs_done += f.jobs_done;
  EXPECT_EQ(jobs_done, report.dispatches);
  for (const health::StreamHealth& s : last.streams) EXPECT_EQ(s.frames_done, s.frames_total);

  // Every flight record is stamped with the planner's clock at the
  // decision, so the records never go back in modeled time.
  std::uint64_t prev = 0;
  for (const health::FlightEvent& ev : monitor.flight().snapshot()) {
    EXPECT_GE(ev.t_cycles, prev);
    EXPECT_LE(ev.t_cycles, makespan);
    prev = ev.t_cycles;
  }
}

TEST(HealthScheduler, UtilizationCreditsEachEpochTheBusyCyclesItOverlaps) {
  // Epochs far shorter than a job: an epoch inside one job must read its
  // fabric fully busy, and each fabric's utilization times epoch length,
  // summed over the run, must give back the fabric's busy cycles.
  auto jobs = mixed_workload(5, 4, 16);
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(3, FabricConfig{});
  cfg.queue.mode = DispatchMode::kStagePipeline;
  health::HealthMonitorConfig mon_cfg;
  mon_cfg.epoch_cycles = stream_cost(jobs[0], library()) / 64;
  health::HealthMonitor monitor(mon_cfg);
  telemetry::TraceRecorder recorder;
  cfg.health = &monitor;
  cfg.trace = &recorder;
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  const std::vector<health::HealthSnapshot>& snaps = monitor.snapshots();
  ASSERT_EQ(snaps.size(), monitor.epochs());  // none evicted
  std::vector<double> credited(report.partitions.size(), 0.0);
  std::size_t epochs_inside_a_job = 0;
  std::uint64_t epoch_start = 0;
  for (const health::HealthSnapshot& snap : snaps) {
    const std::uint64_t epoch_end = snap.modeled_now_cycles;
    for (const health::FabricHealth& fh : snap.fabrics) {
      credited[static_cast<std::size_t>(fh.fabric)] +=
          fh.utilization * static_cast<double>(epoch_end - epoch_start);
      for (const telemetry::Span& job : report.spans) {
        if (job.kind != telemetry::SpanKind::kDispatch || job.fabric_id != fh.fabric ||
            job.cycle_start > epoch_start || job.cycle_end < epoch_end)
          continue;
        ++epochs_inside_a_job;
        EXPECT_DOUBLE_EQ(fh.utilization, 1.0)
            << "fabric " << fh.fabric << ", epoch " << snap.epoch << " inside stream "
            << job.stream_id << " frame " << job.frame_index << "'s job";
      }
    }
    epoch_start = epoch_end;
  }
  EXPECT_GT(epochs_inside_a_job, 0u);
  for (const PartitionSummary& p : report.partitions) {
    ASSERT_GT(p.busy_cycles, 0u) << "fabric " << p.slot;
    const auto busy = static_cast<double>(p.busy_cycles);
    EXPECT_NEAR(credited[static_cast<std::size_t>(p.slot)], busy, 1e-9 * busy)
        << "fabric " << p.slot;
  }
}

/// A monitored run's verdicts and the dump that explains them.
struct MonitoredRun {
  std::string dump;
  std::vector<health::WatchdogTrip> trips;
  health::HealthSnapshot last;  ///< the snapshot at the makespan
  RunReport report;
  std::vector<StreamJob> jobs;  ///< the streams as the run left them
};

MonitoredRun run_monitored(const KernelLibrary& lib, SchedulerConfig cfg,
                           std::vector<StreamJob> jobs, std::uint64_t epoch_cycles) {
  health::HealthMonitorConfig mon_cfg;
  mon_cfg.epoch_cycles = epoch_cycles;
  health::HealthMonitor monitor(mon_cfg);
  cfg.health = &monitor;
  MonitoredRun out;
  out.report = MultiStreamScheduler(lib, cfg).run(jobs);
  out.dump = monitor.health_json(0.0);
  out.trips = monitor.trips();
  out.last = monitor.snapshots().back();
  out.jobs = std::move(jobs);
  return out;
}

TEST(HealthScheduler, VerdictsRepeatExactlyOnATenancyPoolUnderAdmission) {
  // The richest dispatch path at test size: stage mode over one ME
  // fabric, one exclusive transform fabric and one split into two
  // co-tenant slots, partial reconfiguration on, and deadlines that make
  // admission degrade some arrivals and shed others. Two runs must give
  // one dump, byte for byte, and one set of trips.
  FabricConfig me_fabric;
  me_fabric.capabilities = kCapMotionEstimation;
  me_fabric.partial_reconfig = true;
  FabricConfig dct_fabric;
  dct_fabric.capabilities = kCapDctTransform;
  dct_fabric.partial_reconfig = true;
  FabricConfig tenant = dct_fabric;
  tenant.partitions = static_partition_plan(kDefaultGeometry);
  SchedulerConfig cfg;
  cfg.fabric_configs = {me_fabric, dct_fabric, tenant};
  cfg.queue.mode = DispatchMode::kStagePipeline;
  cfg.admission.enabled = true;

  const KernelLibrary& lib = two_geometry_library();
  const std::uint64_t cost = stream_cost(mixed_workload(1, 4, 32)[0], lib);
  const std::vector<StreamJob> jobs = mixed_workload(16, 4, 32, 3 * cost);

  const MonitoredRun first = run_monitored(lib, cfg, jobs, cost / 8);
  const MonitoredRun second = run_monitored(lib, cfg, jobs, cost / 8);

  ASSERT_GT(first.report.admission.rejected, 0u);
  ASSERT_GT(first.report.admission.admitted, first.report.admission.admitted_clean);
  EXPECT_GT(first.report.port_contention_cycles, 0u);
  EXPECT_GT(first.report.partial_reloads, 0u);
  EXPECT_EQ(first.dump, second.dump);
  ASSERT_EQ(first.trips.size(), second.trips.size()) << describe(first.trips);
  for (std::size_t t = 0; t < first.trips.size(); ++t) {
    EXPECT_EQ(first.trips[t].kind, second.trips[t].kind);
    EXPECT_EQ(first.trips[t].epoch, second.trips[t].epoch);
    EXPECT_EQ(first.trips[t].stream_id, second.trips[t].stream_id);
    EXPECT_EQ(first.trips[t].detail, second.trips[t].detail);
  }
}

TEST(HealthScheduler, SlaBurnTripLandsOnTheSameEpochEveryRun) {
  // Admission off: stream 0's deadline is its own analytic cost, which it
  // cannot meet while five best-effort streams share the pool. The burn
  // detector must name it, at one epoch, run after run.
  const KernelLibrary& lib = library();
  std::vector<StreamJob> jobs = mixed_workload(6, 4, 32);
  const std::uint64_t deadline = stream_cost(jobs[0], lib);
  jobs[0].config.sla.deadline_cycles = deadline;
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(2, FabricConfig{});
  cfg.queue.mode = DispatchMode::kStagePipeline;

  const MonitoredRun first = run_monitored(lib, cfg, jobs, deadline / 10);
  const MonitoredRun second = run_monitored(lib, cfg, jobs, deadline / 10);

  ASSERT_EQ(first.trips.size(), 1u) << describe(first.trips);
  EXPECT_EQ(first.trips[0].kind, health::WatchdogKind::kSlaBurn);
  EXPECT_EQ(first.trips[0].stream_id, 0);
  ASSERT_EQ(second.trips.size(), 1u) << describe(second.trips);
  EXPECT_EQ(second.trips[0].epoch, first.trips[0].epoch);
  EXPECT_EQ(second.trips[0].detail, first.trips[0].detail);
  EXPECT_EQ(first.dump, second.dump);
  EXPECT_EQ(first.report.health_anomalies, 1u);
}

TEST(HealthScheduler, AdmittedStreamsThatMeetTheirDeadlinesTripNothing) {
  // serve_streams --sla at test size: admission on, stage mode, one ME
  // fabric beside two transform fabrics that each hold half the library,
  // and six phones with deadlines at 6x one phone's cost. Every admitted
  // phone meets its deadline, though the early frames of some are served
  // late while the pool is shared; their burn projections must not call
  // a miss.
  const soc::RuntimeCondition phones[] = {{1.00, 0.95}, {0.50, 0.95}, {0.90, 0.30},
                                          {0.12, 0.80}, {0.60, 0.92}, {0.85, 0.20}};
  std::vector<StreamJob> jobs;
  for (int k = 0; k < 6; ++k) {
    StreamConfig cfg;
    cfg.name = "phone-" + std::to_string(k + 1);
    cfg.width = 32;
    cfg.height = 32;
    cfg.frame_budget = 4;
    cfg.condition = phones[k];
    cfg.codec.me_range = 4;
    cfg.seed = 77 + static_cast<std::uint64_t>(k) * 13;
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  const std::uint64_t cost = stream_cost(jobs[0], library());
  for (StreamJob& job : jobs) job.config.sla.deadline_cycles = 6 * cost;

  FabricConfig me_fabric;
  me_fabric.capabilities = kCapMotionEstimation;
  FabricConfig dct_fabric;
  dct_fabric.capabilities = kCapDctTransform;
  dct_fabric.context_capacity_bytes = library().total_bytes(kDefaultGeometry) / 2;
  SchedulerConfig cfg;
  cfg.fabric_configs = {me_fabric, dct_fabric, dct_fabric};
  cfg.queue.mode = DispatchMode::kStagePipeline;
  cfg.admission.enabled = true;

  const MonitoredRun run = run_monitored(library(), cfg, jobs, cost / 8);
  ASSERT_EQ(run.report.admission.rejected, 0u);
  EXPECT_EQ(run.report.sla_violations, 0u);
  EXPECT_TRUE(run.trips.empty()) << describe(run.trips);
  // A finished stream's projection is the cycle it finished at.
  ASSERT_EQ(run.last.streams.size(), run.jobs.size());
  for (const health::StreamHealth& s : run.last.streams)
    EXPECT_EQ(s.projected_completion_cycles,
              static_cast<double>(
                  run.jobs[static_cast<std::size_t>(s.stream_id)].modeled_completion_cycles))
        << "stream " << s.stream_id;
}

// ---- health dump pins -----------------------------------------------------

/// @p dump without its burn projections: every stream's `burn_rate` and
/// `projected_completion_cycles`, the last two fields of its object.
std::string without_projections(std::string dump) {
  const std::string projection = ", \"burn_rate\": ";
  for (std::size_t at = dump.find(projection); at != std::string::npos;
       at = dump.find(projection, at))
    dump.erase(at, dump.find('}', at) - at);
  return dump;
}

TEST(HealthPin, PlanPinDumpInBothModes) {
  // The pinned planner workload on one fabric, 50,000-cycle epochs: the
  // snapshots, utilization, flight records and (absent) trips must not
  // move while health changes how it reads the plan. The burn
  // projections are left out.
  const std::pair<DispatchMode, const char*> cases[] = {
      {DispatchMode::kMonolithicFrames, "cc7e02932e46f87f"},
      {DispatchMode::kStagePipeline, "9fd12f8e48b153ff"},
  };
  for (const auto& [mode, want] : cases) {
    const MonitoredRun run = run_monitored(
        plan_workloads::library(),
        plan_workloads::one_fabric_config(mode, SchedulingPolicy::kAffinityBatched),
        plan_workloads::pin_workload(), 50000);
    EXPECT_TRUE(run.trips.empty()) << to_string(mode) << describe(run.trips);
    EXPECT_EQ(fnv1a_hex(without_projections(run.dump)), want) << to_string(mode);
  }
}

TEST(HealthPin, TenancyAdmissionDump) {
  // Sheds, degrades, steals and waits on a shared configuration port, with
  // 5,000-cycle epochs: the whole dump, burn projections and trips
  // included.
  const MonitoredRun run = run_monitored(plan_workloads::two_geometry_library(),
                                         plan_workloads::tenancy_admission_config(),
                                         plan_workloads::tenancy_admission_workload(), 5000);
  EXPECT_EQ(fnv1a_hex(run.dump), "2f3bcc4d12825bb6") << describe(run.trips);
}

// ---- metrics timeline cap ----------------------------------------------

TEST(MetricsTimelines, EpochCapIsConfigurableAndDropsAreAccounted) {
  telemetry::MetricsRegistry m;
  EXPECT_EQ(m.timeline_epoch_cap(), 32u);
  m.set_timeline_epoch_cap(8);
  std::vector<double> samples(20, 1.0);
  m.timeline("queue_depth", samples);
  EXPECT_EQ(m.timelines().at("queue_depth").size(), 8u);
  EXPECT_EQ(m.epochs_dropped(), 12u);
  // The exporter surfaces the loss instead of hiding it.
  const std::string json = telemetry::metrics_json(m, 0.0);
  EXPECT_NE(json.find("\"epochs_dropped\": 12"), std::string::npos);
  // Raising the cap stops the dropping.
  m.set_timeline_epoch_cap(64);
  m.timeline("fabric0_utilization", samples);
  EXPECT_EQ(m.timelines().at("fabric0_utilization").size(), 20u);
  EXPECT_EQ(m.epochs_dropped(), 12u);
}

}  // namespace
}  // namespace dsra::runtime
